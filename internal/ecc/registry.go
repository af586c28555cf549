package ecc

// Registry returns one representative instance of every per-word code
// family over 64-bit data words: the paper's interleaved-parity
// detection codes, the Hsiao correcting codes, and the BCH multi-bit
// baselines. The reference tests (TestSyndromeWordsMatchParityColumns,
// FuzzKernelVsReference) iterate it, so a new code family is covered
// the moment it is registered here.
func Registry() []Code {
	codes := []Code{
		MustEDC(64, 8),
		MustEDC(64, 16),
		MustEDC(64, 32),
		MustSECDED(64),
		MustSECDEDSbED(64, 4),
		MustSECDEDSBD(64),
	}
	for _, mk := range []struct {
		name string
		make func(int) (Code, error)
	}{
		{"DECTED", NewDECTED},
		{"QECPED", NewQECPED},
		{"OECNED", NewOECNED},
	} {
		c, err := mk.make(64)
		if err != nil {
			panic("ecc: registry: " + mk.name + ": " + err.Error())
		}
		codes = append(codes, c)
	}
	return codes
}
