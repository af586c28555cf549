package replay

import (
	"errors"
	"strings"
	"testing"
)

// TestVerifierRule pins the loss-epoch rule case by case over a
// scripted epoch: which reads are judged, how, and when a key is
// forgotten.
func TestVerifierRule(t *testing.T) {
	const addr = 0x40
	var (
		epoch   uint64
		readErr error
	)
	errUnreadable := errors.New("no oracle")
	write := func(v *Verifier, val byte) {
		if e, ok := v.Sample(addr); ok {
			v.Wrote(addr, []byte{val}, e)
		}
	}
	read := func(v *Verifier, val byte) { v.Check(addr, []byte{val}, "") }
	for _, tc := range []struct {
		name                        string
		steps                       func(v *Verifier)
		accounted, reported, silent uint64
		detail                      string // in the one silent detail
		tracked                     bool   // addr is still judged afterwards
	}{
		{name: "untracked key", steps: func(v *Verifier) { read(v, 1) }},
		{name: "match", steps: func(v *Verifier) { write(v, 1); read(v, 1) }, tracked: true},
		{
			name: "accounted: the epoch advanced",
			// The key is forgotten: the second mismatch is not judged.
			steps:     func(v *Verifier) { write(v, 1); epoch++; read(v, 2); read(v, 3) },
			accounted: 1,
		},
		{
			name: "silent: the epoch did not move",
			steps: func(v *Verifier) {
				write(v, 1)
				v.Check(addr, []byte{2}, " on final sweep")
				read(v, 2) // counted once: the key is forgotten
			},
			silent: 1,
			detail: "silent corruption at 0x40 on final sweep: got 0x02 want 0x01 (loss epoch unmoved)",
		},
		{
			name:   "silent: the epoch cannot be read",
			steps:  func(v *Verifier) { write(v, 1); readErr = errUnreadable; read(v, 2) },
			silent: 1,
			detail: "(loss epoch unreadable: no oracle)",
		},
		{
			name:     "failed op",
			steps:    func(v *Verifier) { write(v, 1); v.Failed(addr); read(v, 2) },
			reported: 1,
		},
		{
			name: "pre-write sample failed",
			// The write of 2 is not recorded, and the write of 1 is no
			// longer expected: reading 2 is not judged.
			steps: func(v *Verifier) { write(v, 1); readErr = errUnreadable; write(v, 2); readErr = nil; read(v, 2) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			epoch, readErr = 7, nil
			v := NewVerifier(func(uint64) (uint64, error) { return epoch, readErr })
			tc.steps(v)
			if v.Accounted != tc.accounted || v.Reported != tc.reported || v.Silent != tc.silent {
				t.Fatalf("taxonomy %d accounted, %d reported, %d silent; want %d, %d, %d",
					v.Accounted, v.Reported, v.Silent, tc.accounted, tc.reported, tc.silent)
			}
			if tc.detail != "" && (len(v.SilentDetails) != 1 || !strings.Contains(v.SilentDetails[0], tc.detail)) {
				t.Fatalf("silent details %q, want one containing %q", v.SilentDetails, tc.detail)
			}
			if got := len(v.tracked()) == 1; got != tc.tracked {
				t.Fatalf("addr tracked = %v, want %v", got, tc.tracked)
			}
		})
	}
}
