package core

// The protocol's fixed constants, for black-box tests that derive epoch
// counts from them.
const (
	StaleEpochs     = staleEpochs
	SuspicionEpochs = suspicionEpochs
)
