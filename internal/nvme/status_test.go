package nvme

import (
	"strings"
	"testing"
)

// definedStatuses lists every status code the model defines, plus the
// 15-bit boundary value — the widest status a CQE can carry (DW3 holds CID,
// the phase bit, and 15 status bits).
var definedStatuses = []struct {
	name   string
	status uint16
}{
	{"success", StatusSuccess},
	{"invalid-opcode", StatusInvalidOpcode},
	{"invalid-field", StatusInvalidField},
	{"data-transfer-error", StatusDataTransferError},
	{"internal-error", StatusInternalError},
	{"abort-requested", StatusAbortRequested},
	{"invalid-nsid", StatusInvalidNSID},
	{"lba-out-of-range", StatusLBAOutOfRange},
	{"capacity-exceeded", StatusCapacityExceeded},
	{"max-15-bit", 0x7FFF},
}

func TestCompletionStatusRoundTrip(t *testing.T) {
	for _, tc := range definedStatuses {
		for _, phase := range []bool{false, true} {
			in := Completion{
				DW0:    0xDEADBEEF,
				SQHead: 12,
				SQID:   3,
				CID:    0xABCD,
				Phase:  phase,
				Status: tc.status,
			}
			out, err := UnmarshalCompletion(cqeBytes(in))
			if err != nil {
				t.Fatalf("%s: UnmarshalCompletion: %v", tc.name, err)
			}
			if out != in {
				t.Errorf("%s (phase=%v): round trip %+v -> %+v", tc.name, phase, in, out)
			}
		}
	}
}

// TestCompletionStatusTruncation pins the wire format boundary: bit 15 of
// the status does not fit in the CQE and must be masked, never smeared into
// the neighboring fields.
func TestCompletionStatusTruncation(t *testing.T) {
	in := Completion{CID: 0x1234, Phase: true, Status: 0x8000}
	out, err := UnmarshalCompletion(cqeBytes(in))
	if err != nil {
		t.Fatalf("UnmarshalCompletion: %v", err)
	}
	if out.Status != 0 {
		t.Errorf("status 0x8000 round-tripped to %#x, want 0 (masked)", out.Status)
	}
	if out.CID != in.CID || out.Phase != in.Phase {
		t.Errorf("status overflow corrupted CID/phase: %+v", out)
	}
}

func TestStatusErrorMessage(t *testing.T) {
	for _, tc := range definedStatuses {
		if tc.status == StatusSuccess {
			continue
		}
		err := &StatusError{Op: OpRead, CID: 7, Status: tc.status}
		msg := err.Error()
		if !strings.Contains(msg, "cid 7") {
			t.Errorf("%s: error message %q lacks the CID", tc.name, msg)
		}
	}
}

func TestRetryableStatus(t *testing.T) {
	retryable := map[uint16]bool{
		StatusInternalError:     true,
		StatusDataTransferError: true,
	}
	for _, tc := range definedStatuses {
		if got := RetryableStatus(tc.status); got != retryable[tc.status] {
			t.Errorf("RetryableStatus(%s %#x) = %v, want %v", tc.name, tc.status, got, retryable[tc.status])
		}
	}
}
