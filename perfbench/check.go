package main

import (
	"fmt"

	"rld/internal/stream"
)

// checker verifies each join result is sound for the benchmark query: its
// parts share one key, the op1-stream part passed op1's selection, and it
// carries every stream the plan joins.
type checker struct {
	slots     int
	selSlot   int
	thr       float64
	joinSlots []int
}

func newChecker(w *workload) *checker {
	q := w.query()
	sch := stream.NewJoinSchema(q.Streams)
	c := &checker{slots: sch.Len(), selSlot: sch.Slot(q.Ops[0].Stream), thr: q.Ops[0].Sel * selScale}
	for _, op := range q.Ops[1:] {
		c.joinSlots = append(c.joinSlots, sch.Slot(op.Stream))
	}
	return c
}

// check returns nil for a sound result and the first violated property
// otherwise.
func (c *checker) check(j *stream.Joined) error {
	for _, s := range c.joinSlots {
		if !j.Has(s) {
			return fmt.Errorf("result lacks joined slot %d", s)
		}
	}
	key := j.Key()
	for s := 0; s < c.slots; s++ {
		if !j.Has(s) {
			continue
		}
		p, _ := j.Part(s)
		if p.Key != key {
			return fmt.Errorf("result parts disagree on key: %d vs %d", p.Key, key)
		}
	}
	if v, ok := j.Val(c.selSlot, 0); j.Has(c.selSlot) && (!ok || v >= c.thr) {
		return fmt.Errorf("op1 part with value %v does not pass threshold %v", v, c.thr)
	}
	return nil
}
