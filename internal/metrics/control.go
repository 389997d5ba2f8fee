package metrics

import "fmt"

// ControlReport summarizes control-plane versus data-plane message
// volume for one run — the quantity the ack-coalescing and piggybacking
// work optimizes. Data frames (payload carriers, including any
// piggybacked acknowledgements) are the data plane;
// everything else is control. Acks, Progress, and Nacks are the
// "ack plane": the standalone per-hop reliability traffic that delayed
// cumulative acknowledgements batch away.
type ControlReport struct {
	Acks     uint64 // standalone Ack messages sent
	Progress uint64 // standalone Progress reports sent
	Nacks    uint64 // Nack repair requests sent

	// Heartbeats counts membership-plane beacons (zero outside live
	// deployments) — the failure detector's share of the control plane.
	Heartbeats uint64 `json:",omitempty"`

	ControlMsgs  uint64 // all non-payload messages sent
	ControlBytes uint64
	DataMsgs     uint64 // payload-carrying messages sent
	DataBytes    uint64

	Delivered uint64 // application-level payload deliveries
}

// AckPlane returns the standalone reliability-control message count.
func (r ControlReport) AckPlane() uint64 { return r.Acks + r.Progress + r.Nacks }

// AckPerDelivered returns standalone ack-plane messages per delivered
// payload (0 when nothing was delivered) — the gated regression metric.
func (r ControlReport) AckPerDelivered() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.AckPlane()) / float64(r.Delivered)
}

// ControlByteShare returns the control-plane fraction of all bytes sent.
func (r ControlReport) ControlByteShare() float64 {
	total := r.ControlBytes + r.DataBytes
	if total == 0 {
		return 0
	}
	return float64(r.ControlBytes) / float64(total)
}

func (r ControlReport) String() string {
	return fmt.Sprintf(
		"control: %d msgs / %d B (%.1f%% of bytes); data: %d msgs / %d B; ack-plane %d (ack %d, progress %d, nack %d) = %.3f/delivered over %d deliveries",
		r.ControlMsgs, r.ControlBytes, 100*r.ControlByteShare(),
		r.DataMsgs, r.DataBytes,
		r.AckPlane(), r.Acks, r.Progress, r.Nacks,
		r.AckPerDelivered(), r.Delivered)
}
