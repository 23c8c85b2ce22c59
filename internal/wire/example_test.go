package wire_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Example round-trips a protocol message through the binary codec, the way
// the live transports move every message between processes.
func Example() {
	codec := wire.NewCodec()
	data, err := codec.Marshal(core.LeaderMsg{Epoch: 7})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Marker + type code + varint epoch.
	fmt.Println("encoded bytes:", len(data))

	msg, err := codec.Unmarshal(data)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	hb := msg.(core.LeaderMsg)
	fmt.Println("kind:", obs.KindName(hb.KindID()), "epoch:", hb.Epoch)
	// Output:
	// encoded bytes: 3
	// kind: LEADER epoch: 7
}
