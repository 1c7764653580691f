package main

import "testing"

func TestInputsDeterministic(t *testing.T) {
	gen := func(seed int64) *Inputs {
		in, err := NewInputs(Tiny, seed, 500, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := gen(7), gen(7), gen(8)
	if a.Hash() != b.Hash() {
		t.Error("same seed, different inputs")
	}
	if a.Hash() == c.Hash() {
		t.Error("different seeds, same inputs")
	}
	for i := range a.Tape {
		if string(a.Tape[i].Body) != string(b.Tape[i].Body) {
			t.Fatalf("tape op %d differs", i)
		}
	}
}

func TestReadMixExact(t *testing.T) {
	in, err := NewInputs(Full, 1, 0, 2*Full.ReadPool)
	if err != nil {
		t.Fatal(err)
	}
	var n [numReadKinds]int
	for _, i := range in.ReadOrder[:Full.ReadPool] {
		n[in.Reads[i].Kind]++
	}
	want := [numReadKinds]int{1434, 553, 61}
	if n != want {
		t.Errorf("read mix %v, want %v", n, want)
	}
}

// TestTapeValid replays the tape against the expected active set: every
// join finds its client inactive, every leave and migrate finds it
// active, and every block of ten holds the op mix.
func TestTapeValid(t *testing.T) {
	in, err := NewInputs(Tiny, 3, 2000, 10)
	if err != nil {
		t.Fatal(err)
	}
	active := ActiveAfter(Tiny, in.Universe, in.Tape, 0)
	var mix [numOps]int
	for i, op := range in.Tape {
		mix[op.Kind]++
		if (op.Kind == opJoin) == active[op.Client] {
			t.Fatalf("op %d: %s of client %d with active=%v", i, opNames[op.Kind], op.Client, active[op.Client])
		}
		switch op.Kind {
		case opJoin:
			active[op.Client] = true
		case opLeave:
			active[op.Client] = false
		case opMigrateTo:
			if op.Target < 0 || op.Target >= Tiny.Servers {
				t.Fatalf("op %d: target %d", i, op.Target)
			}
		}
	}
	if mix != [numOps]int{600, 600, 600, 200} {
		t.Errorf("op mix %v", mix)
	}
}
