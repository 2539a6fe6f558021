package sdhash

// Hooks for the differential tests in package sdhash_test, which import
// corpus generators and ransomware families.
var (
	SelectFeatures     = selectFeatures
	ReferenceSelection = referenceSelection
	GenText            = genText
	GenRandom          = genRandom
	BenchInput         = benchInput
)

// ComputeReference is Compute with the adjudicated oracle's selection.
func ComputeReference(data []byte) (*Digest, error) {
	if len(data) < MinInputSize {
		return nil, ErrTooSmall
	}
	offsets, _, err := referenceSelection(data)
	if err != nil {
		return nil, err
	}
	return digestOf(data, offsets)
}
