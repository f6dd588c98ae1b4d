package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame format. A frame is a 4-byte big-endian length prefix followed
// by the frame body; the length counts only the body. There is one body
// layout (see DESIGN.md §5, "Frame layout"):
//
//	[0xF2][8-byte BE request id][kind byte][fields...]
//
// Frames are multiplexed: many requests are in flight per connection,
// and each reply is tagged with the id of the request it answers. The
// marker 0xF2 is not a message kind (kinds are small integers), so a
// body that opens with anything else — in particular a bare encoded
// message, the layout of the retired frame v1 — is rejected with
// ErrFrameVersion, never half-interpreted.

const (
	// FrameV2Marker opens every frame body.
	FrameV2Marker = 0xF2
	// FrameV2Overhead is the header size inside the body: the marker
	// byte plus the 8-byte request id.
	FrameV2Overhead = 9
	// MaxFrameBody bounds a frame body: the payload cap plus the
	// header.
	MaxFrameBody = MaxPayload + FrameV2Overhead
)

// ErrFrameVersion reports a frame body that does not open with
// FrameV2Marker.
var ErrFrameVersion = errors.New("wire: unsupported frame version")

// FrameBody is a parsed frame body.
type FrameBody struct {
	// ID is the request id tagging the frame.
	ID uint64
	// Payload is the encoded message, aliasing the input body.
	Payload []byte
}

// ParseFrameBody splits one frame body (the bytes after the length
// prefix) into request id and payload without decoding the payload. It
// never panics on malformed input.
func ParseFrameBody(body []byte) (FrameBody, error) {
	if len(body) == 0 {
		return FrameBody{}, ErrTruncated
	}
	if len(body) > MaxFrameBody {
		return FrameBody{}, ErrOversized
	}
	if body[0] != FrameV2Marker {
		return FrameBody{}, fmt.Errorf("%w: leading byte %#x", ErrFrameVersion, body[0])
	}
	if len(body) < FrameV2Overhead+1 {
		return FrameBody{}, fmt.Errorf("%w: %d-byte frame body", ErrTruncated, len(body))
	}
	return FrameBody{
		ID:      binary.BigEndian.Uint64(body[1:FrameV2Overhead]),
		Payload: body[FrameV2Overhead:],
	}, nil
}

// AppendFrameV2 appends one complete frame — length prefix, marker,
// request id, and msg's encoding — to dst and returns the extended
// slice. Like AppendEncode it allocates nothing when dst has capacity.
func AppendFrameV2(dst []byte, id uint64, msg Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, FrameV2Marker)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = AppendEncode(dst, msg)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}
