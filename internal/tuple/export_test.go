package tuple

// NameIndex and Names expose the name table to package tuple_test,
// which builds the patterns that must find their names in it.
var (
	NameIndex = nameIndex
	Names     = names[:]
)
