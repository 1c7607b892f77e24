package cachesim

import "fmt"

// SRAMBytesPerCEA is the cache capacity of one Core Equivalent Area in
// SRAM: the paper's baseline maps 8 CEAs to ≈4MB of L2 (§5.1), i.e.
// 512KB/CEA.
const SRAMBytesPerCEA = 512 * 1024

// CapacityForCEAs converts a die-area allocation in CEAs into cache bytes
// for a storage technology `density`× denser than SRAM (1 = SRAM, 8–16 =
// the paper's DRAM assumptions). It bridges the analytical model's CEA
// vocabulary to simulator byte capacities.
func CapacityForCEAs(ceas, density float64) (int, error) {
	if ceas < 0 {
		return 0, fmt.Errorf("cachesim: negative cache area %g CEAs", ceas)
	}
	if !(density >= 1) {
		return 0, fmt.Errorf("cachesim: density must be ≥ 1, got %g", density)
	}
	return int(ceas * density * SRAMBytesPerCEA), nil
}
