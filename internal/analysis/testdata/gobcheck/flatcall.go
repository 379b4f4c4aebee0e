// Fixture for gobcheck's flat-codec rule: the flat rpc codec constructors
// stay inside internal/dist/net.go (the version-checked connect sequence)
// and internal/wire.
package gobcheck

import (
	"io"
	"net/rpc"

	"repro/internal/wire"
)

func flatClient(conn io.ReadWriteCloser) rpc.ClientCodec {
	return wire.NewFlatClientCodec(conn) // want "wire.NewFlatClientCodec outside the flat-codec boundary"
}

func flatServer(conn io.ReadWriteCloser) rpc.ServerCodec {
	return wire.NewFlatServerCodec(conn) // want "wire.NewFlatServerCodec outside the flat-codec boundary"
}

// The frame primitives are not fenced — the bulk channel uses them from
// anywhere.
func frames(w io.Writer, payload []byte) error {
	return wire.WriteFrame(w, payload)
}
