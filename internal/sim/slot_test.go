package sim

import (
	"testing"

	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// ccset is shorthand for a serving set built from (pci, isPCell) pairs.
func ccset(pairs ...[2]int) []*ran.ServingCC {
	var ccs []*ran.ServingCC
	for _, p := range pairs {
		ccs = append(ccs, servingCC(p[0], p[1] == 1))
	}
	return ccs
}

// servingCC is a serving CC on a cell with the given PCI.
func servingCC(pci int, isPCell bool) *ran.ServingCC {
	return &ran.ServingCC{Cell: &ran.Cell{PCI: pci}, IsPCell: isPCell}
}

// checkSlotInvariants asserts the four slotTable invariants after a sync:
// used[i] holds exactly when one PCI maps to slot i, no departed PCI keeps
// an assignment, the PCell (if any) sits at slot 0, and no two PCIs share
// a slot.
func checkSlotInvariants(t *testing.T, st *slotTable, ccs []*ran.ServingCC) {
	t.Helper()
	holders := map[int]int{}
	for pci, slot := range st.byPCI {
		if o, dup := holders[slot]; dup {
			t.Fatalf("slot %d held by both %d and %d", slot, o, pci)
		}
		holders[slot] = pci
		if !st.used[slot] {
			t.Fatalf("slot %d held by %d but not marked used", slot, pci)
		}
	}
	for i := 0; i < trace.MaxCC; i++ {
		if st.used[i] {
			if _, ok := holders[i]; !ok {
				t.Fatalf("slot %d marked used with no holder (leak)", i)
			}
		}
	}
	current := map[int]bool{}
	for _, cc := range ccs {
		current[cc.Cell.PCI] = true
		if cc.IsPCell {
			if s, ok := st.byPCI[cc.Cell.PCI]; !ok || s != 0 {
				t.Fatalf("pcell %d at slot %d (assigned=%v), want slot 0", cc.Cell.PCI, s, ok)
			}
		}
	}
	for pci := range st.byPCI {
		if !current[pci] {
			t.Fatalf("departed pci %d still assigned", pci)
		}
	}
}

// TestSlotTableRemoveReAdd pins the behaviour of sync through SCell
// remove + re-add sequences, the scenario the slot-leak audit targeted:
// releasing a slot and re-assigning the same PCI within consecutive syncs
// must reuse the freed capacity and never strand a used[] bit.
func TestSlotTableRemoveReAdd(t *testing.T) {
	st := newSlotTable()

	// Attach: PCell 10 plus SCells 20, 30, 40 fill all four slots.
	full := ccset([2]int{10, 1}, [2]int{20, 0}, [2]int{30, 0}, [2]int{40, 0})
	st.sync(full)
	checkSlotInvariants(t, st, full)
	slot20, _ := st.slotOf(20)
	slot30, _ := st.slotOf(30)
	if len(st.byPCI) != 4 {
		t.Fatalf("assigned %d CCs, want 4", len(st.byPCI))
	}

	// Remove SCell 20, then re-add it next sync. Its old slot must have
	// been released and is the lowest free slot, so it gets it back.
	drop := ccset([2]int{10, 1}, [2]int{30, 0}, [2]int{40, 0})
	st.sync(drop)
	checkSlotInvariants(t, st, drop)
	if _, ok := st.slotOf(20); ok {
		t.Fatal("removed SCell 20 still assigned")
	}
	if st.used[slot20] {
		t.Fatalf("slot %d not released on removal (leak)", slot20)
	}
	st.sync(full)
	checkSlotInvariants(t, st, full)
	if s, ok := st.slotOf(20); !ok || s != slot20 {
		t.Fatalf("re-added SCell 20 at slot %d (ok=%v), want its old slot %d", s, ok, slot20)
	}
	// The continuously-present SCell kept its slot across the churn.
	if s, _ := st.slotOf(30); s != slot30 {
		t.Fatalf("stable SCell 30 moved %d -> %d", slot30, s)
	}

	// Swap within one sync: 20 departs exactly as new SCell 50 arrives.
	// The freed slot must be reusable in the same call — this is the
	// "remove + re-add within one sync" case of the audit.
	swap := ccset([2]int{10, 1}, [2]int{30, 0}, [2]int{40, 0}, [2]int{50, 0})
	st.sync(swap)
	checkSlotInvariants(t, st, swap)
	if s, ok := st.slotOf(50); !ok || s != slot20 {
		t.Fatalf("arriving SCell 50 at slot %d (ok=%v), want freed slot %d", s, ok, slot20)
	}

	// Full churn back: 50 out, 20 in again.
	st.sync(full)
	checkSlotInvariants(t, st, full)
	if len(st.byPCI) != 4 {
		t.Fatalf("assigned %d CCs after churn, want 4", len(st.byPCI))
	}
}

// TestSlotTablePCellHandover pins slot-0 ownership through handovers with
// a full table: the new PCell evicts the squatter, which moves to a free
// slot if one exists and is dropped otherwise — never leaving used[0]
// stranded.
func TestSlotTablePCellHandover(t *testing.T) {
	st := newSlotTable()
	full := ccset([2]int{10, 1}, [2]int{20, 0}, [2]int{30, 0}, [2]int{40, 0})
	st.sync(full)

	// Handover: SCell 20 becomes the PCell while 10 stays as an SCell.
	// 20 must land on slot 0; 10, evicted, moves to a free slot (the one
	// 20 vacated).
	handover := ccset([2]int{10, 0}, [2]int{20, 1}, [2]int{30, 0}, [2]int{40, 0})
	st.sync(handover)
	checkSlotInvariants(t, st, handover)
	if s, _ := st.slotOf(20); s != 0 {
		t.Fatalf("new PCell 20 at slot %d, want 0", s)
	}
	if _, ok := st.slotOf(10); !ok {
		t.Fatal("demoted PCell 10 dropped although a slot was free")
	}

	// Handover to a brand-new PCI with the table completely full: the
	// squatter on slot 0 is evicted and — with no free slot — dropped.
	newcomer := ccset([2]int{99, 1}, [2]int{10, 0}, [2]int{30, 0}, [2]int{40, 0}, [2]int{20, 0})
	st.sync(newcomer)
	checkSlotInvariants(t, st, newcomer)
	if s, _ := st.slotOf(99); s != 0 {
		t.Fatalf("new PCell 99 at slot %d, want 0", s)
	}
	// Exactly MaxCC CCs can hold slots; the overflow CC is unassigned
	// but no slot leaks.
	if len(st.byPCI) != trace.MaxCC {
		t.Fatalf("assigned %d CCs, want %d", len(st.byPCI), trace.MaxCC)
	}
}

// TestSlotTableInvariantSweep drives sync with randomized serving sets —
// including overflow beyond trace.MaxCC and PCell-less sets — and checks
// the invariants plus slot stability after every step. This is the pinned
// form of the slot-leak audit: it found no violation, so it guards the
// current behaviour against regressions.
func TestSlotTableInvariantSweep(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 300; trial++ {
		st := newSlotTable()
		prev := map[int]int{}
		for step := 0; step < 40; step++ {
			// Random serving set of 0..8 CCs from PCIs 1..10 (beyond
			// MaxCC on purpose), usually with a PCell.
			n := src.Intn(9)
			var ccs []*ran.ServingCC
			seen := map[int]bool{}
			for len(ccs) < n {
				pci := 1 + src.Intn(10)
				if seen[pci] {
					continue
				}
				seen[pci] = true
				ccs = append(ccs, servingCC(pci, false))
			}
			if len(ccs) > 0 && src.Bool(0.9) {
				ccs[src.Intn(len(ccs))].IsPCell = true
			}
			st.sync(ccs)
			checkSlotInvariants(t, st, ccs)
			// Stability: a continuously-present CC keeps its slot unless
			// the PCell rule moved it (promoted to PCell, or squatting on
			// slot 0 when the PCell reclaimed it).
			var pcellPCI int
			hasP := false
			for _, cc := range ccs {
				if cc.IsPCell {
					pcellPCI, hasP = cc.Cell.PCI, true
				}
			}
			for pci, slot := range st.byPCI {
				old, had := prev[pci]
				if !had || old == slot {
					continue
				}
				if hasP && pci == pcellPCI {
					continue // promoted: moved to slot 0
				}
				if old == 0 {
					continue // squatter evicted from slot 0 by the PCell
				}
				t.Fatalf("trial %d step %d: pci %d moved %d -> %d without cause", trial, step, pci, old, slot)
			}
			prev = map[int]int{}
			for pci, slot := range st.byPCI {
				prev[pci] = slot
			}
		}
	}
}
