package fault

import (
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/sim"
)

func ioCmd(op uint8, slba uint64) nvme.Command {
	c := nvme.Command{Opcode: op, NSID: 1}
	c.SetSLBA(slba)
	return c
}

func TestNthRuleFiresEveryNth(t *testing.T) {
	in := NewInjector(1)
	r := in.Add(Rule{Name: "every-3rd", Kind: StatusError, Opcode: nvme.OpRead,
		Nth: 3, Status: nvme.StatusInternalError})
	for i := 1; i <= 12; i++ {
		st := in.ExecStatus(ioCmd(nvme.OpRead, uint64(i)))
		want := uint16(nvme.StatusSuccess)
		if i%3 == 0 {
			want = nvme.StatusInternalError
		}
		if st != want {
			t.Errorf("command %d: status %#x, want %#x", i, st, want)
		}
	}
	if r.Seen() != 12 || r.Fired() != 4 {
		t.Errorf("seen/fired = %d/%d, want 12/4", r.Seen(), r.Fired())
	}
	if in.Injected() != 4 || in.InjectedByKind(StatusError) != 4 {
		t.Errorf("injected = %d (by kind %d), want 4", in.Injected(), in.InjectedByKind(StatusError))
	}
}

func TestOpcodeAndLBAFilters(t *testing.T) {
	in := NewInjector(1)
	in.Add(Rule{Name: "reads-100-199", Kind: StatusError, Opcode: nvme.OpRead,
		LBAFirst: 100, LBALast: 199, Nth: 1, Status: nvme.StatusLBAOutOfRange})
	cases := []struct {
		cmd  nvme.Command
		want uint16
	}{
		{ioCmd(nvme.OpRead, 150), nvme.StatusLBAOutOfRange},
		{ioCmd(nvme.OpRead, 100), nvme.StatusLBAOutOfRange},
		{ioCmd(nvme.OpRead, 199), nvme.StatusLBAOutOfRange},
		{ioCmd(nvme.OpRead, 99), nvme.StatusSuccess},
		{ioCmd(nvme.OpRead, 200), nvme.StatusSuccess},
		{ioCmd(nvme.OpWrite, 150), nvme.StatusSuccess},
	}
	for i, tc := range cases {
		if got := in.ExecStatus(tc.cmd); got != tc.want {
			t.Errorf("case %d: status %#x, want %#x", i, got, tc.want)
		}
	}
}

func TestOpAnyMatchesAllOpcodes(t *testing.T) {
	in := NewInjector(1)
	in.Add(Rule{Name: "everything", Kind: StatusError, Opcode: OpAny,
		Nth: 1, Status: nvme.StatusInternalError})
	for _, op := range []uint8{nvme.OpRead, nvme.OpWrite, 0x00 /* Flush */} {
		if got := in.ExecStatus(ioCmd(op, 0)); got != nvme.StatusInternalError {
			t.Errorf("opcode %#x: status %#x, want injected error", op, got)
		}
	}
}

func TestCountCapsFires(t *testing.T) {
	in := NewInjector(1)
	r := in.Add(Rule{Name: "twice-only", Kind: StatusError, Opcode: nvme.OpRead,
		Nth: 1, Count: 2, Status: nvme.StatusInternalError})
	fired := 0
	for i := 0; i < 10; i++ {
		if in.ExecStatus(ioCmd(nvme.OpRead, uint64(i))) != nvme.StatusSuccess {
			fired++
		}
	}
	if fired != 2 || r.Fired() != 2 {
		t.Errorf("fired %d times (rule says %d), want 2", fired, r.Fired())
	}
}

// TestProbabilityReplaysWithSeed pins determinism: the same seed must yield
// the same per-command decisions, and the empirical rate must track the
// configured probability.
func TestProbabilityReplaysWithSeed(t *testing.T) {
	const n = 4000
	decisions := func(seed uint64) []bool {
		in := NewInjector(seed)
		in.Add(Rule{Name: "p10", Kind: StatusError, Opcode: nvme.OpRead,
			Probability: 0.1, Status: nvme.StatusInternalError})
		out := make([]bool, n)
		for i := range out {
			out[i] = in.ExecStatus(ioCmd(nvme.OpRead, uint64(i))) != nvme.StatusSuccess
		}
		return out
	}
	a, b := decisions(42), decisions(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across identical seeds", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired < n/20 || fired > n/5 {
		t.Errorf("p=0.1 fired %d/%d times, far from expectation", fired, n)
	}
	c := decisions(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical decision streams")
	}
}

func TestCQEFateRules(t *testing.T) {
	in := NewInjector(1)
	in.Add(Rule{Name: "drop-2nd", Kind: DropCQE, Opcode: nvme.OpRead, Nth: 2})
	in.Add(Rule{Name: "late-writes", Kind: DelayCQE, Opcode: nvme.OpWrite,
		Nth: 1, Delay: 3 * sim.Microsecond})
	if f := in.CQEFate(ioCmd(nvme.OpRead, 0), nvme.StatusSuccess); f.Drop || f.Delay != 0 {
		t.Errorf("1st read fate = %+v, want pass-through", f)
	}
	if f := in.CQEFate(ioCmd(nvme.OpRead, 1), nvme.StatusSuccess); !f.Drop {
		t.Errorf("2nd read fate = %+v, want drop", f)
	}
	if f := in.CQEFate(ioCmd(nvme.OpWrite, 0), nvme.StatusSuccess); f.Drop || f.Delay != 3*sim.Microsecond {
		t.Errorf("write fate = %+v, want 3µs delay", f)
	}
	if in.InjectedByKind(DropCQE) != 1 || in.InjectedByKind(DelayCQE) != 1 {
		t.Errorf("by-kind counts = %d/%d, want 1/1",
			in.InjectedByKind(DropCQE), in.InjectedByKind(DelayCQE))
	}
}

func TestCtrlFateRules(t *testing.T) {
	in := NewInjector(1)
	in.Add(Rule{Name: "crash-3rd", Kind: CrashCtrl, Opcode: OpAny, Nth: 3, Count: 1})
	in.Add(Rule{Name: "hang-5th", Kind: HangCtrl, Opcode: OpAny, Nth: 5, Count: 1,
		Delay: 2 * sim.Millisecond})
	var got []nvme.CtrlFault
	for i := 0; i < 6; i++ {
		got = append(got, in.CtrlFate(ioCmd(nvme.OpRead, uint64(i))))
	}
	for i, f := range got {
		wantCrash := i == 2
		// The crash firing at command 2 short-circuits the hook, so the
		// hang rule never sees that command: its 5th match is command 5.
		wantHang := sim.Time(0)
		if i == 5 {
			wantHang = 2 * sim.Millisecond
		}
		if f.Crash != wantCrash || f.Hang != wantHang || f.Remove {
			t.Errorf("command %d fate = %+v", i, f)
		}
	}
	if in.InjectedByKind(CrashCtrl) != 1 || in.InjectedByKind(HangCtrl) != 1 {
		t.Errorf("by-kind = %d/%d, want 1/1",
			in.InjectedByKind(CrashCtrl), in.InjectedByKind(HangCtrl))
	}
}

func TestCtrlFateRemoveOutranksCrash(t *testing.T) {
	in := NewInjector(1)
	in.Add(Rule{Name: "crash", Kind: CrashCtrl, Opcode: OpAny, Nth: 1})
	in.Add(Rule{Name: "remove", Kind: RemoveCtrl, Opcode: OpAny, Nth: 1})
	if f := in.CtrlFate(ioCmd(nvme.OpRead, 0)); !f.Remove || f.Crash {
		t.Errorf("fate = %+v, want remove to outrank crash", f)
	}
}

// TestFirstFiringRuleWins: rules are evaluated in registration order and at
// most one fault fires per command per hook.
func TestFirstFiringRuleWins(t *testing.T) {
	in := NewInjector(1)
	first := in.Add(Rule{Name: "first", Kind: StatusError, Opcode: nvme.OpRead,
		Nth: 1, Status: nvme.StatusInternalError})
	second := in.Add(Rule{Name: "second", Kind: StatusError, Opcode: nvme.OpRead,
		Nth: 1, Status: nvme.StatusLBAOutOfRange})
	if got := in.ExecStatus(ioCmd(nvme.OpRead, 0)); got != nvme.StatusInternalError {
		t.Errorf("status %#x, want the first rule's %#x", got, nvme.StatusInternalError)
	}
	if first.Fired() != 1 || second.Fired() != 0 {
		t.Errorf("fired = %d/%d, want 1/0", first.Fired(), second.Fired())
	}
	if in.Injected() != 1 {
		t.Errorf("injected = %d, want 1", in.Injected())
	}
}
