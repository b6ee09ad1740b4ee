package main

import (
	"bufio"
	"bytes"

	"repro/internal/rdf"
)

// encodeNT serializes triples as N-Triples: the only form in which the
// program under test receives its data.
func encodeNT(triples []rdf.Triple) ([]byte, error) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	enc := rdf.NewEncoder(w)
	for _, t := range triples {
		if err := enc.Encode(t); err != nil {
			return nil, err
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeNT parses N-Triples back, for the reference engines.
func decodeNT(nt []byte) ([]rdf.Triple, error) {
	return rdf.NewDecoder(bytes.NewReader(nt)).DecodeAll()
}
