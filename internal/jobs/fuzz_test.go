package jobs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeSpec decodes a request body the way vaxd's POST /jobs does.
func decodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}

// FuzzSpec: whatever a client posts, decoding, Validate and Key never
// panic; a spec that validates is within the work bound and has one
// content address — the same on a second call and after a JSON round
// trip.
func FuzzSpec(f *testing.F) {
	for _, tc := range specValidateCases {
		seed, err := json.Marshal(tc.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	for _, s := range badHardwareSpecs {
		seed, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{not json`))
	f.Add([]byte(`{"bogus_field":1}`))
	f.Add([]byte(`{"instructions":100000000}`))
	f.Add([]byte(`{"workloads":["TIMESHARING-A"],"cache_ways":4611686018427387904}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSpec(data)
		if err != nil {
			return
		}
		verr := s.Validate()
		k1, kerr := s.Key()
		if verr != nil {
			return
		}
		if kerr != nil {
			t.Fatalf("spec validates but Key fails: %v", kerr)
		}
		if !s.workWithinLimit() {
			t.Fatalf("spec validates beyond the work bound: %+v", s)
		}
		if k2, _ := s.Key(); k2 != k1 {
			t.Fatalf("Key unstable: %s then %s", k1, k2)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		r, err := decodeSpec(enc)
		if err != nil {
			t.Fatalf("re-decoding a marshalled spec: %v", err)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("round-tripped spec no longer validates: %v", err)
		}
		if k3, _ := r.Key(); k3 != k1 {
			t.Fatalf("Key moved across a JSON round trip: %s then %s", k1, k3)
		}
	})
}
