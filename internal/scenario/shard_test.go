package scenario

import (
	"path/filepath"
	"testing"
)

// TestCorpusShardInvariance replays the whole scenario corpus on a
// 2-shard PDES cluster and requires the measured window and the
// drain-complete accounting to match the serial run exactly — every
// counter, percentile, per-flow vector and audit verdict. Together with
// the corpus' own oracle battery this pins the sharded engine to the
// serial semantics across every datapath shape the fuzzer has found
// worth remembering.
//
// The one field excluded is RunResult.Fired: a cross-shard frame fires
// two engine events (the sender-side serializer retire plus the posted
// delivery on the receiving shard) where the serial engine fires one,
// so raw event counts legitimately differ by exactly the cross-shard
// frame count. Everything observable about the simulated system must
// not.
func TestCorpusShardInvariance(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			sc, _, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, falcon := range applicableModes(sc) {
				serial, sharded := sc, sc
				sharded.Shards = 2

				mWant := Measure(serial, falcon)
				mGot := Measure(sharded, falcon)
				mWant.Fired, mGot.Fired = 0, 0
				if want, got := mWant.Fingerprint(), mGot.Fingerprint(); got != want {
					t.Errorf("falcon=%t: sharded Measure diverges\nserial:  %s\nsharded: %s", falcon, want, got)
				}

				aWant := Account(serial, falcon)
				aGot := Account(sharded, falcon)
				if want, got := accountFingerprint(aWant), accountFingerprint(aGot); got != want {
					t.Errorf("falcon=%t: sharded Account diverges\nserial:  %s\nsharded: %s", falcon, want, got)
				}
			}
		})
	}
}

// accountFingerprint renders an AccountResult for byte comparison.
func accountFingerprint(a AccountResult) string {
	out := ""
	out += "sent=" + itoa(a.Sent) + " wire=" + itoa(a.Wire) + " delivered=" + itoa(a.Delivered)
	out += " sock=" + itoa(a.SocketDrops)
	out += " tx=[" + a.TxDrops.String() + "] rx=[" + a.RxDrops.String() + "]"
	out += " order=" + itoa(a.OrderViols)
	out += " flows=["
	for i := range a.PerFlowSent {
		out += itoa(a.PerFlowSent[i]) + ":" + itoa(a.PerFlowDelivered[i]) + " "
	}
	out += "]"
	out += " violations=["
	for _, v := range a.Violations {
		out += v + "; "
	}
	out += "]"
	return out
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
