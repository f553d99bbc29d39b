package persist

import (
	"bytes"
	"testing"
)

// FuzzDecompress feeds arbitrary bytes through Decompress, which every
// snapshot read back from a store goes through. It must never panic:
// unframed bytes pass through untouched, and a framed payload either
// is a corruption error or inflates to bytes that frame and inflate
// back to themselves.
func FuzzDecompress(f *testing.F) {
	cat, types, g := buildState(f)
	snap, err := SaveState(cat, types, g, nil)
	if err != nil {
		f.Fatal(err)
	}
	framed := Compress(snap)
	for _, seed := range [][]byte{nil, {FrameGzip}, Compress(nil), snap, framed, framed[:len(framed)/2]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decompress(data)
		if !Compressed(data) {
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("unframed payload altered (err %v)", err)
			}
			return
		}
		if err != nil {
			if out != nil {
				t.Fatalf("error %v came with %d bytes", err, len(out))
			}
			return
		}
		if again, err := Decompress(Compress(out)); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("inflated payload does not round-trip (err %v)", err)
		}
	})
}
