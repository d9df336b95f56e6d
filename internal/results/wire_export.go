package results

import (
	"bufio"
	"io"

	"encore/internal/wire"
)

// WriteWire serializes the store as CRC-framed binary records in insertion
// order — the same application/x-encore-records stream the WAL persists and
// the v2 binary lanes carry, so an export can be replayed through any frame
// consumer. An export has no commit positions (those are a WAL coordinate),
// so both stream positions carry the entry's insertion sequence, exactly how
// DecodeRecord already treats a v1 record.
func (s *Store) WriteWire(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bufp := wire.GetBuffer()
	defer wire.PutBuffer(bufp)
	buf := *bufp
	err := s.ordered(func(seq uint64, m Measurement) error {
		frame, err := wire.AppendRecordFrame(buf[:0], seq, seq, (*wire.Record)(&m))
		if err != nil {
			return err
		}
		buf = frame
		_, err = bw.Write(frame)
		return err
	})
	if err != nil {
		return err
	}
	*bufp = buf
	return bw.Flush()
}
