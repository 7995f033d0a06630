package core

import "bytes"

// stateV1Version heads the retired text relay format.
const stateV1Version = "pstate-v1"

// EncodeStateV1 writes the text pstate-v1 dump an earlier release put
// on the wire. DecodeChainState no longer reads that format, so the
// writer exists for tests alone: they need real v1 input to assert the
// rejection with.
func EncodeStateV1(s *ChainState) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(stateV1Version + "\n")
	if err := writeChainState(&buf, "s", s.cs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
