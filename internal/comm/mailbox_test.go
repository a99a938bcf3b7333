package comm_test

import (
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
)

// TestRingFIFOAcrossWrapAndGrowth drives a ring through every phase of
// its life — empty, wrapped around the end of the array, grown while
// wrapped — against a plain slice.
func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var r comm.Ring
	var want [][]byte
	next := byte(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			b := []byte{next}
			next++
			r.Push(b)
			want = append(want, b)
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			got := r.Pop()
			if got[0] != want[0][0] {
				t.Fatalf("popped %d, want %d", got[0], want[0][0])
			}
			want = want[1:]
		}
	}
	push(3)
	pop(2)  // head now mid-array
	push(3) // wraps (capacity 4)
	push(5) // grows while wrapped
	pop(4)
	push(20)
	pop(len(want))
	if r.Len() != 0 {
		t.Fatalf("drained ring reports %d queued", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty ring did not panic")
		}
	}()
	r.Pop()
}

// TestMailboxSteadyStateAllocs is the allocation gate the serving-layer
// gates cannot be: they run a 1-rank cluster, so no message ever crosses
// a mailbox. One message through a warmed 2-rank cluster — pooled copy
// in, ring slot, pooled buffer back — must allocate nothing.
func TestMailboxSteadyStateAllocs(t *testing.T) {
	c := chancomm.New(2)
	src, dst := c.Endpoint(0), c.Endpoint(1)
	payload := make([]byte, 256)
	cycle := func() {
		src.Send(1, comm.TagRun, payload, 0)
		comm.PutBuf(dst.Recv(0, comm.TagRun))
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("%.2f allocations per Send+Recv in steady state, want 0", allocs)
	}
}
