package overlay

import "falcon/internal/proto"

// BuildInner exposes the uncached frame builder to the external tests.
func (h *Host) BuildInner(p SendParams, ipProto uint8, tcp *proto.TCPHdr, info EndpointInfo) ([]byte, error) {
	return h.buildInner(p, ipProto, tcp, info)
}
