package division

import "fmt"

// PartitionStrategy selects one of the two §3.4 partitioning strategies used
// for hash table overflow (and, in §6, for multi-processor execution).
type PartitionStrategy int

const (
	// QuotientPartitioning partitions the dividend on the quotient
	// attributes; each cluster is divided by the ENTIRE divisor and the
	// final quotient is the concatenation of the cluster quotients.
	QuotientPartitioning PartitionStrategy = iota
	// DivisorPartitioning partitions divisor and dividend with the same
	// function on the divisor attributes; a collection phase — itself a
	// division over phase numbers — intersects the cluster quotients.
	DivisorPartitioning
)

func (s PartitionStrategy) String() string {
	switch s {
	case QuotientPartitioning:
		return "quotient-partitioning"
	case DivisorPartitioning:
		return "divisor-partitioning"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", int(s))
	}
}
