package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestLoadParityPins pins absolute outputs of the in-process load loop at
// CI's replay configuration (4 streams x 120 inputs, seed 7): the SHA-256
// of every stream's integer (model, cap) decision sequence. The other
// tests here compare two runs of the same code; these digests also catch
// a seed swap, and the sentence row — whose sentence-wise budget makes
// each goal depend on the ones before — a reordering of churn and goal
// adjustment. Integers only, so the pins hold across Go versions whose
// math routines differ in the last bit.
func TestLoadParityPins(t *testing.T) {
	for _, c := range []struct{ scenario, task, want string }{
		{"bursty", "image", "544a5111847e01505d319536d5a50a6f7cea14afa87de3f18071a0734e8a79ec"},
		{"churn", "image", "6a571266680164410890139a341f23dc7cd08a3b049281f89ecbfde5ffa324b8"},
		{"churn", "sentence", "12a50d69a66e893883027b9c7d466d8eb863b374d739c968bf0b077380778a01"},
	} {
		cfg, err := parseFlags([]string{"-scenario", c.scenario, "-task", c.task,
			"-streams", "4", "-inputs", "120", "-seed", "7"})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runLoad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, seq := range rep.DecisionSeqs {
			for _, tok := range strings.Split(strings.TrimSuffix(seq, ";"), ";") {
				f := strings.SplitN(tok, ",", 3)
				b.WriteString(f[0] + "," + f[1] + ";")
			}
			b.WriteString("\n")
		}
		sum := sha256.Sum256([]byte(b.String()))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s %s: decision digest %s, want %s", c.scenario, c.task, got, c.want)
		}
	}
}
