package core

import "bytes"

// EncodeStateV1 writes the text pstate-v1 dump the previous release
// put on the wire. This build only reads that format, so the writer
// exists for tests alone: they need real v1 input to hold the reader
// to.
func EncodeStateV1(s *ChainState) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(stateV1Version + "\n")
	if err := writeChainState(&buf, "s", s.cs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
