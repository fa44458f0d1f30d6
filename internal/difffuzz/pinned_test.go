package difffuzz

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// pinnedSeeds is how many decoded cases TestEngineResultsPinned runs.
const pinnedSeeds = 256

// pinnedDigest is the SHA-256 over the emulated Results of seeds
// 0..pinnedSeeds-1, each run once. It was recorded from the engine before
// the scaled/unscaled loops were folded into one clock-policy engine, and
// any engine refactor must leave it unchanged.
const pinnedDigest = "ba79ec1479cee705cf4ed3bb26d2761d2c840641ad45726abec45f3903e56bfb"

// TestEngineResultsPinned pins the emulated results of every engine path
// the decoder reaches. The golden cycle-count tests cover single-channel
// single-core runs and the tier-1 sweep digest folds reports, not Results;
// this digest covers every axis (cores, channels, ranks, refresh, burst,
// time scaling, faults, mitigation) at full Result resolution, so a change
// that moves any emulated value on any axis fails here.
func TestEngineResultsPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for seed := uint64(0); seed < pinnedSeeds; seed++ {
		c := Decode(seed)
		r, err := runOnce(c, nil, nil)
		if err != nil {
			t.Errorf("seed %d [%s]: %v", seed, c, err)
		}
		binary.LittleEndian.PutUint64(buf[:], seed)
		h.Write(buf[:])
		h.Write([]byte(resultDigest(r)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedDigest {
		t.Errorf("emulated results of seeds 0..%d moved: digest %s, pinned %s", pinnedSeeds-1, got, pinnedDigest)
	}
}
