// Quickstart: protect a memory array with 2D error coding, corrupt it
// with a large clustered error, and watch the recovery process restore
// every bit.
package main

import (
	"fmt"
	"log"

	"twodcache"
)

func main() {
	// The paper's running example: an 8 kB array of 4-way interleaved
	// (72,64) EDC8 codewords with 32 vertical parity rows (Fig. 3(c)).
	arr := twodcache.NewPaperArray()
	fmt.Printf("array: %d rows x %d bits, %d words of %d bits\n",
		arr.Rows(), arr.RowBits(), arr.Words(), arr.DataBits())

	// Fill it with recognisable data. Every write is a read-before-write
	// that keeps the vertical parity rows up to date in the background.
	for r := 0; r < arr.Rows(); r++ {
		for w := 0; w < 4; w++ {
			arr.WriteUint64(r, w, uint64(r)<<32|uint64(w))
		}
	}

	// A single-event upset flips a 32x32-bit cluster — far beyond what
	// SECDED or even an 8-bit-correcting BCH code could repair.
	fmt.Println("\ninjecting a 32x32 clustered error at (100, 120)...")
	for r := 100; r < 132; r++ {
		for c := 120; c < 152; c++ {
			arr.FlipBit(r, c)
		}
	}

	// The next read of an affected word detects the corruption via the
	// horizontal EDC8 code and triggers the 2D recovery process.
	data, status := arr.ReadUint64(105, 2)
	fmt.Printf("read row 105 word 2: status=%v value=%#x\n", status, data)
	if status != twodcache.ReadRecovered {
		log.Fatalf("expected recovery, got %v", status)
	}

	// Everything is back: spot-check the whole cluster region.
	for r := 100; r < 132; r++ {
		for w := 0; w < 4; w++ {
			d, st := arr.ReadUint64(r, w)
			if st != twodcache.ReadClean || d != uint64(r)<<32|uint64(w) {
				log.Fatalf("row %d word %d corrupt after recovery", r, w)
			}
		}
	}
	fmt.Println("all 1024 words verified intact after recovery")

	st := arr.Stats()
	fmt.Printf("\nstats: reads=%d writes=%d extra-reads=%d recoveries=%d recovered-words=%d\n",
		st.Reads, st.Writes, st.ExtraReads, st.Recoveries, st.RecoveredWords)
}
