package resil_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tell/internal/resil"
	"tell/internal/testutil"
)

func TestWindowExactlyOnce(t *testing.T) {
	w := resil.NewWindow(8)

	// First sighting executes.
	if _, st := w.Begin("pn0", 1); st != resil.StateNew {
		t.Fatalf("first Begin = %v, want new", st)
	}
	// A duplicate racing the in-flight original must not execute.
	if _, st := w.Begin("pn0", 1); st != resil.StateInFlight {
		t.Fatalf("concurrent duplicate = %v, want inflight", st)
	}
	w.Commit("pn0", 1, []byte("resp-1"))
	// A duplicate after completion replays the cached response.
	cached, st := w.Begin("pn0", 1)
	if st != resil.StateReplay {
		t.Fatalf("post-commit duplicate = %v, want replay", st)
	}
	if string(cached) != "resp-1" {
		t.Fatalf("replayed %q, want resp-1", cached)
	}
	if w.Replays() != 1 {
		t.Fatalf("Replays = %d, want 1", w.Replays())
	}
	// Clients are independent.
	if _, st := w.Begin("pn1", 1); st != resil.StateNew {
		t.Fatalf("other client's seq 1 = %v, want new", st)
	}
	// Seq 0 is the no-token value: always processed, never tracked.
	if _, st := w.Begin("pn0", 0); st != resil.StateNew {
		t.Fatalf("seq 0 = %v, want new", st)
	}
	if _, st := w.Begin("pn0", 0); st != resil.StateNew {
		t.Fatalf("second seq 0 = %v, want new (untracked)", st)
	}
}

func TestWindowAbortAllowsRetry(t *testing.T) {
	w := resil.NewWindow(8)
	if _, st := w.Begin("pn0", 5); st != resil.StateNew {
		t.Fatalf("Begin = %v", st)
	}
	w.Abort("pn0", 5) // shed: not executed, no response cached
	if _, st := w.Begin("pn0", 5); st != resil.StateNew {
		t.Fatalf("retry after abort = %v, want new", st)
	}
}

// TestWindowReplayByteIdentical is the satellite property test: the
// replayed response is byte-identical to the original, and both the cached
// copy and every replayed copy are private — mutating the buffer the
// server handed to the transport (which recycles it) or a previously
// replayed buffer cannot corrupt later replays.
func TestWindowReplayByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(testutil.Seed(t, 11)))
	w := resil.NewWindow(64)
	for i := 1; i <= 50; i++ {
		orig := make([]byte, rng.Intn(200))
		rng.Read(orig)
		want := append([]byte(nil), orig...)

		if _, st := w.Begin("c", uint64(i)); st != resil.StateNew {
			t.Fatalf("seq %d: Begin = %v", i, st)
		}
		w.Commit("c", uint64(i), orig)
		// The server's buffer is recycled by the transport after send:
		// scribble over it.
		for j := range orig {
			orig[j] ^= 0xff
		}
		first, st := w.Begin("c", uint64(i))
		if st != resil.StateReplay {
			t.Fatalf("seq %d: dup = %v", i, st)
		}
		if !bytes.Equal(first, want) {
			t.Fatalf("seq %d: replay differs from original response", i)
		}
		// The replayed buffer is recycled too; a second replay must
		// still match.
		for j := range first {
			first[j] = 0
		}
		second, st := w.Begin("c", uint64(i))
		if st != resil.StateReplay || !bytes.Equal(second, want) {
			t.Fatalf("seq %d: second replay corrupted (st=%v)", i, st)
		}
	}
}

func TestWindowEvictionRaisesFloor(t *testing.T) {
	w := resil.NewWindow(4)
	for i := 1; i <= 10; i++ {
		if _, st := w.Begin("c", uint64(i)); st != resil.StateNew {
			t.Fatalf("seq %d: %v", i, st)
		}
		w.Commit("c", uint64(i), []byte{byte(i)})
	}
	// Seqs 7..10 are retained, 1..6 evicted below the floor.
	for i := 7; i <= 10; i++ {
		if _, st := w.Begin("c", uint64(i)); st != resil.StateReplay {
			t.Fatalf("seq %d: %v, want replay", i, st)
		}
	}
	for i := 1; i <= 6; i++ {
		if _, st := w.Begin("c", uint64(i)); st != resil.StateStale {
			t.Fatalf("seq %d: %v, want stale", i, st)
		}
	}
}

func TestWindowCodecRoundTrip(t *testing.T) {
	w := resil.NewWindow(16)
	for c := 0; c < 3; c++ {
		client := fmt.Sprintf("pn%d", c)
		for i := 1; i <= 20; i++ { // overflows Cap → nonzero floor
			w.Begin(client, uint64(i))
			w.Commit(client, uint64(i), []byte(fmt.Sprintf("%s-%d", client, i)))
		}
	}
	enc := w.Encode()
	got, err := resil.DecodeWindow(enc)
	if err != nil {
		t.Fatalf("DecodeWindow: %v", err)
	}
	// Round trip must be a fixpoint (deterministic order, same content).
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("Encode(Decode(Encode(w))) != Encode(w)")
	}
	// Decoded windows must behave identically: replay and floor survive.
	cached, st := got.Begin("pn1", 20)
	if st != resil.StateReplay || string(cached) != "pn1-20" {
		t.Fatalf("decoded replay: st=%v resp=%q", st, cached)
	}
	if _, st := got.Begin("pn1", 1); st != resil.StateStale {
		t.Fatalf("decoded floor: seq 1 = %v, want stale", st)
	}
}

func TestWindowCodecEmpty(t *testing.T) {
	w := resil.NewWindow(8)
	got, err := resil.DecodeWindow(w.Encode())
	if err != nil {
		t.Fatalf("DecodeWindow(empty): %v", err)
	}
	if !bytes.Equal(got.Encode(), w.Encode()) {
		t.Fatal("empty round trip not a fixpoint")
	}
}

func TestDecodeWindowRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{},
		{0xff},                  // bad version
		{1, 8, 5},               // client count beyond buffer
		{1, 8, 1, 2, 'a'},       // truncated client id
		{1, 8, 1, 1, 'a', 0, 9}, // done count beyond buffer
	} {
		if _, err := resil.DecodeWindow(b); err == nil {
			t.Errorf("DecodeWindow(%v) accepted garbage", b)
		}
	}
}

// sortEvictModel is the window's original eviction rule, kept as the
// oracle for the ordered eviction: after each commit, sort every cached seq
// and evict the lowest ones beyond Cap, raising the floor to the highest
// seq evicted.
type sortEvictModel struct {
	cap   int
	floor uint64
	done  map[uint64][]byte
}

func (m *sortEvictModel) commit(seq uint64, resp []byte) {
	m.done[seq] = resp
	if len(m.done) > m.cap {
		seqs := make([]uint64, 0, len(m.done))
		for s := range m.done {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, s := range seqs[:len(seqs)-m.cap] {
			delete(m.done, s)
			if s > m.floor {
				m.floor = s
			}
		}
	}
}

// TestWindowEvictionMatchesSortModel replays random, partly out-of-order
// seq streams (local shuffles, repeats, and late commits below the floor)
// and checks after every commit that the window caches exactly the model's
// seqs with the model's floor, as observed through Begin.
func TestWindowEvictionMatchesSortModel(t *testing.T) {
	rng := rand.New(rand.NewSource(testutil.Seed(t, 5)))
	for stream := 0; stream < 40; stream++ {
		capN := 1 + rng.Intn(24)
		w := resil.NewWindow(capN)
		m := &sortEvictModel{cap: capN, done: make(map[uint64][]byte)}
		var seqs []uint64
		for base := uint64(1); base < 300; {
			// A run of consecutive seqs delivered in a shuffled order.
			run := 1 + rng.Intn(8)
			chunk := make([]uint64, run)
			for i := range chunk {
				chunk[i] = base + uint64(i)
			}
			rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
			seqs = append(seqs, chunk...)
			base += uint64(run)
			switch rng.Intn(6) {
			case 0: // a repeat of a recent seq
				seqs = append(seqs, seqs[rng.Intn(len(seqs))])
			case 1: // a straggler far behind the frontier
				seqs = append(seqs, 1+uint64(rng.Intn(int(base))))
			}
		}
		var maxSeq uint64
		for step, seq := range seqs {
			resp := []byte(fmt.Sprintf("r%d-%d", seq, step))
			w.Commit("c", seq, resp)
			m.commit(seq, resp)
			if seq > maxSeq {
				maxSeq = seq
			}
			for s := uint64(1); s <= maxSeq+1; s++ {
				want := resil.StateNew
				if _, ok := m.done[s]; ok {
					want = resil.StateReplay
				} else if s <= m.floor {
					want = resil.StateStale
				}
				got, st := w.Begin("c", s)
				if st != want {
					t.Fatalf("stream %d step %d (cap %d, commit %d): seq %d = %v, want %v (model floor %d)",
						stream, step, capN, seq, s, st, want, m.floor)
				}
				switch st {
				case resil.StateNew:
					w.Abort("c", s)
				case resil.StateReplay:
					if !bytes.Equal(got, m.done[s]) {
						t.Fatalf("stream %d step %d: seq %d replays %q, want %q", stream, step, s, got, m.done[s])
					}
				}
			}
		}
	}
}
