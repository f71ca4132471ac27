package sched

import "testing"

func TestAddCapacityDisabledAndZeroNoOp(t *testing.T) {
	s := New(2, true) // scheduler disabled: everything admitted immediately
	s.AddCapacity(5)  // must not panic or change behavior
	for i := 0; i < 10; i++ {
		s.Acquire(SpawnS, 0)
	}
	if s.InUse() != 10 {
		t.Fatalf("disabled scheduler InUse = %d", s.InUse())
	}
	s2 := New(2, false)
	s2.AddCapacity(0) // no-op
	s2.Acquire(SpawnS, 0)
	if s2.InUse() != 1 {
		t.Fatalf("InUse = %d", s2.InUse())
	}
}

func TestAddCapacityBelowOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("driving the bound below 1 did not panic")
		}
	}()
	s := New(2, false)
	s.AddCapacity(-2)
}

func TestRemoveCapacityShrinksBound(t *testing.T) {
	s := New(2, false)
	s.AddCapacity(4) // fleet arrives: bound 6
	if got := s.Capacity(); got != 6 {
		t.Fatalf("Capacity = %d, want 6", got)
	}
	s.RemoveCapacity(4) // fleet retires: bound back to the local pool
	if got := s.Capacity(); got != 2 {
		t.Fatalf("Capacity = %d, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative RemoveCapacity did not panic")
		}
	}()
	s.RemoveCapacity(-1)
}
