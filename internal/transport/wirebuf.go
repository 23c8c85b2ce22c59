package transport

import (
	"errors"
	"fmt"

	"repro/internal/link"
	"repro/internal/wire"
)

// encBufs pools encode buffers for the mem and TCP send paths. The pool
// lives in internal/link (the per-link sender releases into it) and counts
// gets/puts; tests quiesce a cluster and assert Balance() == 0 to catch
// leaks and double puts on every frame path.
var encBufs = link.NewPool(512)

// codec frames every message a cluster moves; a Codec is read-only once
// built, so every cluster shares this one.
var codec = wire.NewCodec()

// unframable panics unless err is the codec refusing a frame over
// wire.MaxFrame: that message is lost like any other, a drop a fair-lossy
// link tolerates, while any other marshal error is a programming error.
func unframable(msg any, err error) {
	if !errors.Is(err, wire.ErrTooLarge) {
		panic(fmt.Sprintf("transport: marshal %T: %v", msg, err))
	}
}
