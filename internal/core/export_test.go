package core

import (
	"fmt"

	"easydram/internal/workload"
)

// RunStreamsCheckingKeys runs a multi-core system like RunStreams, checking
// the merge's key cache at every pick (checkMergeKeys). It reports how many
// picks were checked.
func RunStreamsCheckingKeys(s *System, strms []workload.Stream) (Result, int, error) {
	picks := 0
	res, err := s.runMulti(strms, func(m *mcEngine, ch, ci int, key int64) error {
		picks++
		return checkMergeKeys(m, ch, ci, key)
	})
	return res, picks, err
}

// checkMergeKeys recomputes every actor's key from engine state and fails
// when a cached key differs from its fresh value, or when the merge picked
// a different actor or key than a full uncached scan would (channels first,
// then cores, ties to the earlier actor).
func checkMergeKeys(m *mcEngine, ch, ci int, key int64) error {
	e := m.e
	wantChan, wantCore, want := -1, -1, mcInf
	for i := range e.sys.chans {
		k := mcInf
		if at, ok := e.chanPoint(i); ok {
			k = e.keys.floor(at)
		}
		if m.chanKeys[i] != k {
			return fmt.Errorf("merge key cache: channel %d cached key %d, fresh %d", i, m.chanKeys[i], k)
		}
		if k < want {
			want, wantChan = k, i
		}
	}
	for i, c := range m.cores {
		k := m.coreKey(c)
		if m.coreKeys[i] != k {
			return fmt.Errorf("merge key cache: core %d cached key %d, fresh %d", i, m.coreKeys[i], k)
		}
		if k < want {
			want, wantCore, wantChan = k, i, -1
		}
	}
	if ch != wantChan || ci != wantCore || key != want {
		return fmt.Errorf("merge picked (chan %d, core %d, key %d); a fresh scan picks (chan %d, core %d, key %d)",
			ch, ci, key, wantChan, wantCore, want)
	}
	return nil
}
