package segstore

import (
	"net/http"
	"testing"

	"xarch/internal/hostile"
)

// FuzzCheckHeaders feeds a replication peer's check headers to
// ParseCheckHeaders: whatever the strings, no panic and no allocation
// beyond the hostile bound, and a Check that parses is possible. Whatever
// CheckHeaders renders parses back to the same Check, or — for a Check no
// blob can pass — is refused.
func FuzzCheckHeaders(f *testing.F) {
	f.Add("1024", "64", "960", "deadbeef", int64(1024), int64(64), int64(960), uint32(0xdeadbeef))
	f.Add("0", "0", "0", "0", int64(0), int64(0), int64(0), uint32(0))
	f.Add("-1", "0", "0", "0", int64(-1), int64(0), int64(0), uint32(0))
	f.Add("10", "2", "9", "1", int64(10), int64(2), int64(9), uint32(1))
	f.Add("9223372036854775807", "9223372036854775807", "1", "ffffffff", int64(1<<62), int64(1<<62), int64(1<<62), uint32(1))
	f.Add("", "0x10", "1e3", "100000000", int64(10), int64(11), int64(0), uint32(0))
	f.Fuzz(func(t *testing.T, size, dataOff, payload, crc string, s, o, p int64, sum uint32) {
		h := http.Header{}
		h.Set(HeaderSize, size)
		h.Set(HeaderDataOff, dataOff)
		h.Set(HeaderPayload, payload)
		h.Set(HeaderCRC, crc)
		var c Check
		err := hostile.Check(t, len(size)+len(dataOff)+len(payload)+len(crc), func() (err error) {
			c, err = ParseCheckHeaders(h)
			return err
		})
		if err == nil {
			if perr := c.validate(); perr != nil {
				t.Fatalf("parsed an impossible check %+v: %v", c, perr)
			}
			roundTrip(t, c)
		}
		roundTrip(t, Check{Size: s, DataOff: o, Payload: p, CRC: sum})
	})
}

// roundTrip renders c as headers and parses them back.
func roundTrip(t *testing.T, c Check) {
	t.Helper()
	h := http.Header{}
	CheckHeaders(h, c)
	back, err := ParseCheckHeaders(h)
	switch {
	case c.validate() != nil:
		if err == nil {
			t.Fatalf("impossible check %+v parsed back as %+v", c, back)
		}
	case err != nil:
		t.Fatalf("check %+v: %v", c, err)
	case back != c:
		t.Fatalf("check %+v parsed back as %+v", c, back)
	}
}
