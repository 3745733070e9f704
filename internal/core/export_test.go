package core

// The protocol's fixed constants, for black-box tests that derive epoch
// counts from them.
const (
	StaleEpochs     = staleEpochs
	SuspicionEpochs = suspicionEpochs
)

// CheckStoreRows exposes checkStoreRows to black-box tests.
func CheckStoreRows(n *Node) error { return checkStoreRows(n) }
