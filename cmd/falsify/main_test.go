package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/experiment"
	"repro/internal/falsify"
)

// smokeCorpusPin is the SHA-256 of the corpus file that `make
// smoke-falsify` writes (Corpus.EncodeJSON plus the trailing newline
// the command appends), so it equals `sha256sum falsify-corpus.json`.
const smokeCorpusPin = "3ca0884da295472188f7b96381456b22f1bdaf581057a6b4645fdc01117098e5"

// TestSmokeCorpusDigest pins the falsifier absolutely, not against a
// second run of the same code: the `make smoke-falsify` configuration
// (-steps 60 -samples 8 -refine 2 -sweeps 1 -seed 1 -polish over the
// built-in space, flag defaults otherwise) must reproduce a fixed
// corpus byte for byte.
func TestSmokeCorpusDigest(t *testing.T) {
	corpus, err := falsify.Search(falsify.Config{
		Space:    defaultSpace(),
		Platform: experiment.Glucosym(),
		Patient:  0,
		Steps:    60,
		Seed:     1,
		Samples:  8,
		Refine:   2,
		Sweeps:   1,
		Polish:   true,
		Keep:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := corpus.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append(data, '\n'))
	if got := hex.EncodeToString(sum[:]); got != smokeCorpusPin {
		t.Errorf("smoke corpus digest %s, pinned %s", got, smokeCorpusPin)
	}
}
