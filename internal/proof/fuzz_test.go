package proof_test

// Never-panic fuzz targets for the two decoders on the checker's disk
// path: the binary DRAT container and the certificate stream. Seeds run
// under plain `go test`; explore with, e.g.,
//
//	go test ./internal/proof -run '^$' -fuzz FuzzWalkDrat -fuzztime 60s
//	go test ./internal/proof -run '^$' -fuzz FuzzCheckDirCerts -fuzztime 60s -fuzzminimizetime 50x
//
// A CheckDir run takes milliseconds, so FuzzCheckDirCerts needs the
// bounded minimization: under the default 60 s budget a worker spends
// its first minute shrinking one interesting input.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/proof"
)

// encodeSteps writes steps through the binary trace writer.
func encodeSteps(t testing.TB, steps []dratStep) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := proof.NewBinWriter(&buf)
	for _, s := range steps {
		if err := bw.Step(s.sess, s.op, s.lits); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// errTooLong stops a walk whose body inflates past what one fuzz input
// deserves; DEFLATE expands small inputs by up to ~1000x.
var errTooLong = errors.New("trace too long")

// walkAll decodes a trace into its steps, giving up past 1<<16 steps.
func walkAll(data []byte) ([]dratStep, error) {
	var steps []dratStep
	err := proof.WalkDrat(bytes.NewReader(data), func(sess int, op byte, lits []int32) error {
		if len(steps) == 1<<16 {
			return errTooLong
		}
		steps = append(steps, dratStep{sess, op, append([]int32(nil), lits...)})
		return nil
	})
	return steps, err
}

// FuzzWalkDrat feeds arbitrary bytes to WalkDrat. It must never panic,
// and every trace it accepts must survive a re-encode through BinWriter:
// the same sessions, opcodes, and clauses (in the encoder's canonical
// literal order).
func FuzzWalkDrat(f *testing.F) {
	f.Add(encodeSteps(f, []dratStep{
		{0, proof.OpInput, []int32{1, -2}},
		{0, proof.OpInput, []int32{2}},
		{0, proof.OpLearn, []int32{1}},
		{0, proof.OpDelete, []int32{1, -2}},
		{0, proof.OpLearn, nil},
	}))
	// Out-of-order first appearances: a racer's session flushes before
	// the incremental session it raced.
	f.Add(encodeSteps(f, []dratStep{
		{2, proof.OpInput, []int32{1, -2}},
		{0, proof.OpInput, []int32{3}},
		{2, proof.OpLearn, []int32{-1}},
		{1, proof.OpInput, []int32{2, 4}},
		{0, proof.OpDelete, []int32{3}},
	}))
	f.Add(encodeSteps(f, []dratStep{{7, proof.OpInput, []int32{-2147483647, 5, -5}}}))
	f.Add(encodeSteps(f, nil))
	// A corrupted trailer, and the unchecked version 2.
	bad := encodeSteps(f, []dratStep{{0, proof.OpInput, []int32{1, -2}}, {0, proof.OpLearn, []int32{1}}})
	bad[len(bad)-1] ^= 0x01
	f.Add(bad)
	f.Add([]byte("BDRT\x03"))
	f.Add([]byte("BDRT\x02"))
	f.Add([]byte("s 0\ni 1 -2 0\nl -1 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		steps, err := walkAll(data)
		if err != nil {
			return
		}
		again, err := walkAll(encodeSteps(t, steps))
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if len(again) != len(steps) {
			t.Fatalf("re-encode decoded %d steps, want %d", len(again), len(steps))
		}
		for i, s := range steps {
			g := again[i]
			want := canonLits(s.lits)
			if g.sess != s.sess || g.op != s.op || len(g.lits) != len(want) {
				t.Fatalf("step %d: re-encoded %+v, want %+v", i, g, s)
			}
			for j := range want {
				if g.lits[j] != want[j] {
					t.Fatalf("step %d: re-encoded literals %v, want %v", i, g.lits, want)
				}
			}
		}
	})
}

// FuzzCheckDirCerts swaps one function's certificate stream in a copy
// of the cached end-to-end directory for the fuzz input. Whatever the
// bytes, CheckDir must not panic, and it may return an error only for a
// directory-level failure — of which there is none here — so every
// defect of the input has to surface as a rejection. The copy keeps the
// function's own artifacts (certs, trace, witness) and the shared term
// segment, so the certificates are replayed against a real trace and a
// real witness; the other functions are left out to keep each run
// short, so the function chosen is one whose artifacts verify alone.
// Inputs without the compressed-JSON magic are wrapped in the container
// first, so mutations explore the JSON stream rather than stopping at
// the header check; inputs with the magic are written as they are.
func FuzzCheckDirCerts(f *testing.F) {
	src, _ := emitProofDir(f)
	// Candidates: certified functions with a trace and model
	// certificates, so the stream can cite every certificate kind.
	type candidate struct {
		base string
		size int64
	}
	var cands []candidate
	entries, err := os.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		b, ok := strings.CutSuffix(e.Name(), proof.WitnessSuffix)
		if !ok {
			continue
		}
		certs, err := os.ReadFile(filepath.Join(src, b+proof.CertsSuffix))
		if err != nil || !bytes.Contains(inflate(certs), []byte(`"kind":"model"`)) {
			continue
		}
		if st, err := os.Stat(filepath.Join(src, b+proof.DratSuffix)); err == nil {
			cands = append(cands, candidate{b, st.Size()})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].size < cands[j].size })
	// The cheapest candidate whose artifacts verify on their own (cache
	// references into other functions would not resolve in the copy).
	dir, base := "", ""
	for _, c := range cands {
		d := f.TempDir()
		for _, name := range []string{proof.TermsName, c.base + proof.CertsSuffix, c.base + proof.DratSuffix, c.base + proof.WitnessSuffix} {
			data, err := os.ReadFile(filepath.Join(src, name))
			if err != nil {
				f.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, name), data, 0o644); err != nil {
				f.Fatal(err)
			}
		}
		if report, err := proof.CheckDir(d); err == nil && len(report.Rejections) == 0 && report.Witnesses == 1 {
			dir, base = d, c.base
			break
		}
	}
	if dir == "" {
		f.Fatal("no certified function whose artifacts verify on their own")
	}
	certsPath := filepath.Join(dir, base+proof.CertsSuffix)
	orig, err := os.ReadFile(certsPath)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(orig)
	f.Add(inflate(orig))
	header := `{"schema":2,"function":"` + base + `"}` + "\n"
	f.Add([]byte(header))
	f.Add([]byte(header + `{"id":"q0","kind":"drat","result":"unsat","term":-1,"sess":0,"pos":3,"final":[-2147483648,4294967297]}` + "\n"))
	f.Add([]byte(header + `{"id":"q0","kind":"model","result":"sat","term":0,"model":{"bv":[{"n":"x","v":"-1"}]}}` + "\n"))
	f.Add([]byte(header + `{"id":"q0","kind":"ref","result":"unsat","key":"00","term":-1}` + "\n" + `{"sessions":[]}` + "\n"))
	f.Add([]byte(`{"schema":1,"function":"f","queries":[]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte("BJSN")) {
			data = deflate(t, data)
		}
		if err := os.WriteFile(certsPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := proof.CheckDir(dir); err != nil {
			t.Fatalf("CheckDir returned a directory-level error for a bad certs file: %v", err)
		}
	})
}
