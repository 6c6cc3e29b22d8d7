// Package stats collects the per-processor accounting every parallel run
// reports: virtual-time breakdown by resource (CPU, disk, network,
// synchronization wait), raw volume counters, and named phase timings.
// The paper's Table 2 break-up ("for Eclat we also show the break-up for
// the time spent in the initialization and transformation phase") and the
// section 8.1 observations are reproduced from these counters.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Breakdown is the accounting record of one simulated processor (or the
// merged record of a whole run).
type Breakdown struct {
	// Virtual nanoseconds by resource. Total virtual time of a processor
	// is the sum of the four.
	CPUNS  int64
	DiskNS int64
	NetNS  int64
	WaitNS int64 // time spent blocked at barriers/reductions waiting for slower peers

	// Volumes.
	DiskBytesRead    int64
	DiskBytesWritten int64
	NetBytes         int64
	NetMsgs          int64
	Barriers         int64
	Scans            int64 // full passes over the local partition
	Ops              int64 // abstract compute operations charged

	// Per-encoding split of the tid-set payload bytes shipped during the
	// transformation exchange (a subset of NetBytes; non-payload traffic
	// such as reductions and result gathers is in neither). With the
	// adaptive representation each list travels in whichever encoding is
	// smaller, and this split shows how the volume divided.
	NetBytesSparse int64 // tid-list payloads shipped sparse (4 B/tid)
	NetBytesDense  int64 // tid-list payloads shipped packed (roaring containers)

	// Phases maps a phase name to virtual nanoseconds spent in it.
	Phases map[string]int64
}

// TotalNS returns the processor's total virtual time.
func (b *Breakdown) TotalNS() int64 { return b.CPUNS + b.DiskNS + b.NetNS + b.WaitNS }

// Total returns the total virtual time as a Duration.
func (b *Breakdown) Total() time.Duration { return time.Duration(b.TotalNS()) }

// AddPhase accrues virtual time to a named phase.
func (b *Breakdown) AddPhase(name string, ns int64) {
	if b.Phases == nil {
		b.Phases = map[string]int64{}
	}
	b.Phases[name] += ns
}

// Merge accumulates other into b (for cluster-wide volume totals; note
// that virtual times of concurrent processors do not add up to elapsed
// time — use the maximum clock for that).
func (b *Breakdown) Merge(other *Breakdown) {
	b.CPUNS += other.CPUNS
	b.DiskNS += other.DiskNS
	b.NetNS += other.NetNS
	b.WaitNS += other.WaitNS
	b.DiskBytesRead += other.DiskBytesRead
	b.DiskBytesWritten += other.DiskBytesWritten
	b.NetBytes += other.NetBytes
	b.NetBytesSparse += other.NetBytesSparse
	b.NetBytesDense += other.NetBytesDense
	b.NetMsgs += other.NetMsgs
	b.Barriers += other.Barriers
	b.Scans += other.Scans
	b.Ops += other.Ops
	for name, ns := range other.Phases {
		b.AddPhase(name, ns)
	}
}

// String renders a compact human-readable summary.
func (b *Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total=%v cpu=%v disk=%v net=%v wait=%v",
		time.Duration(b.TotalNS()), time.Duration(b.CPUNS),
		time.Duration(b.DiskNS), time.Duration(b.NetNS), time.Duration(b.WaitNS))
	fmt.Fprintf(&sb, " | scans=%d diskRead=%s netBytes=%s msgs=%d barriers=%d ops=%d",
		b.Scans, fmtBytes(b.DiskBytesRead), fmtBytes(b.NetBytes), b.NetMsgs, b.Barriers, b.Ops)
	if b.NetBytesSparse > 0 || b.NetBytesDense > 0 {
		fmt.Fprintf(&sb, " | payload: sparse=%s dense=%s",
			fmtBytes(b.NetBytesSparse), fmtBytes(b.NetBytesDense))
	}
	if len(b.Phases) > 0 {
		names := make([]string, 0, len(b.Phases))
		for n := range b.Phases {
			names = append(names, n)
		}
		sort.Strings(names)
		sb.WriteString(" | phases:")
		for _, n := range names {
			fmt.Fprintf(&sb, " %s=%v", n, time.Duration(b.Phases[n]))
		}
	}
	return sb.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
