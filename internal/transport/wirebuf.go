package transport

import (
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
