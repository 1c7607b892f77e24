package mattson

import (
	"math/bits"
)

// This file holds the fused sweep kernel: five nested 8-way SetProfiler
// instances advanced by a single loop, one access at a time.
//
// Running the profilers separately leaves each one's per-access cost
// pinned at the front-end: the loop bodies are branchy enough that five
// sequential passes cost five full lookups per access no matter how well
// the per-profiler state caches. Fusing buys two things the separate
// passes cannot have:
//
//   - Set-refinement inclusion becomes a register test. With equal
//     associativity and nested power-of-two set counts under LRU, the
//     largest cache's contents are a superset of every smaller one's, so
//     a leader miss implies a miss in all four followers. In the fused
//     loop that fact is available in-iteration (hit0), and the followers
//     skip their fingerprint probes outright for an install-only path of
//     a dozen ops each.
//   - The skip branch predicts. hit0 is re-tested a few dozen
//     instructions after it was computed, well inside the branch
//     predictor's global-history window, so the followers' path choice
//     predicts exactly as well as the leader's hit/miss pattern — unlike
//     a marks array consulted in a later pass, where the correlation is
//     thousands of iterations stale.
//
// The body is hand-expanded (suffix K = slot K, largest cache first)
// because the per-slot step exceeds the inliner's budget as a function,
// and five calls per access erase the win. Per-slot counters are packed
// into one register each — hits | evictions<<20 | writeBacks<<40 — which
// is what partStats.addPacked unpacks; the 20-bit fields bound chunks to
// fusedMaxChunk accesses.

// fusedMaxChunk bounds the chunks runFused5 accepts: below it, the 20-bit
// packed-counter fields cannot overflow. The sweep driver's parallelChunk
// is far below it.
const fusedMaxChunk = 1 << 20

// runFused5 streams one packed chunk (lineAddr<<1 | write words, len <
// fusedMaxChunk) through five 8-way profilers with strictly nested set
// counts, p0 the largest, and returns the five packed counter words. Each
// slot's step is the runPackedCounters body with the victim aging
// specialized to assoc 8 (the detect and age adds coincide). Each slot's
// miss arm carries the install-only blocks of all smaller slots, so the
// cascade skip and the slot's own miss handling share one branch.
func runFused5(packed []uint64, p0, p1, p2, p3, p4 *SetProfiler) [5]uint64 {
	b0, k0 := p0.ways, p0.setMask
	s0 := p0.setShift & 63
	q0 := uint64(len(b0) - 1)
	var c0 uint64
	b1, k1 := p1.ways, p1.setMask
	s1 := p1.setShift & 63
	q1 := uint64(len(b1) - 1)
	var c1 uint64
	b2, k2 := p2.ways, p2.setMask
	s2 := p2.setShift & 63
	q2 := uint64(len(b2) - 1)
	var c2 uint64
	b3, k3 := p3.ways, p3.setMask
	s3 := p3.setShift & 63
	q3 := uint64(len(b3) - 1)
	var c3 uint64
	b4, k4 := p4.ways, p4.setMask
	s4 := p4.setShift & 63
	q4 := uint64(len(b4) - 1)
	var c4 uint64
	// Non-emptiness lets the prove pass turn every masked index
	// (x & (len-1)) into a checked-free access.
	if len(b0) == 0 || len(b1) == 0 || len(b2) == 0 ||
		len(b3) == 0 || len(b4) == 0 {
		return [5]uint64{}
	}
	for i := 0; i < len(packed); i++ {
		w := packed[i]
		la := w >> 1
		wd := w << 63
		// One signature byte per line, shared by every slot: the low
		// byte of the leader's tag. It is a pure function of the line
		// (bits above the largest set index), so each slot's fingerprint
		// store and probe agree; the SWAR probe word xb is built once.
		tb := (la >> s0) & 0xff
		xb := tb * swarLo
		g0 := la & k0
		tg0 := la >> s0
		bi0 := (g0 << 4) & q0
		fj0 := (bi0 | 1) & q0
		fp0 := b0[bi0]
		iv0 := uint32(b0[fj0])
		x0 := fp0 ^ xb
		z0 := ^(x0 | ((x0 | swarHi) - swarLo)) & swarHi
		hit0 := false
		if z0 != 0 {
			cc0 := uint64(bits.TrailingZeros64(z0)) >> 3
			ci0 := (bi0 + 2 + cc0) & q0
			wc0 := b0[ci0]
			ok0 := wc0&^dirtyFlag == tg0
			if !ok0 && z0&(z0-1) != 0 {
				cc0, ci0, wc0, ok0 = permRare(b0, z0, bi0, tg0, q0)
			}
			if ok0 {
				sh0 := (uint32(cc0) * 4) & 31
				dd0 := (iv0 >> sh0) & 0xf
				lt0 := dd0*0x11111111 + 0x77777777 - iv0
				iv0 = (iv0 + (lt0&0x88888888)>>3) &^ (0xf << sh0)
				b0[ci0&q0] = wc0 | wd
				b0[fj0] = uint64(iv0)
				c0++
				hit0 = true
			}
		}
		if !hit0 {
			t0 := iv0 + 0x11111111
			vv0 := uint64(bits.TrailingZeros32(t0&0x88888888)) >> 2
			iv0 = t0 & 0x77777777
			pi0 := (bi0 + 2 + vv0) & q0
			pv0 := b0[pi0]
			b0[pi0] = tg0 | wd
			bs0 := (vv0 * 8) & 63
			b0[bi0] = fp0&^(0xff<<bs0) | tb<<bs0
			b0[fj0] = uint64(iv0)
			ee0 := b2u(pv0 != invalidTag)
			c0 += ee0<<20 | (ee0&(pv0>>63))<<40
			g1 := la & k1
			tg1 := la >> s1
			bi1 := (g1 << 4) & q1
			fj1 := (bi1 | 1) & q1
			fp1 := b1[bi1]
			iv1 := uint32(b1[fj1])
			t1 := iv1 + 0x11111111
			vv1 := uint64(bits.TrailingZeros32(t1&0x88888888)) >> 2
			iv1 = t1 & 0x77777777
			pi1 := (bi1 + 2 + vv1) & q1
			pv1 := b1[pi1]
			b1[pi1] = tg1 | wd
			bs1 := (vv1 * 8) & 63
			b1[bi1] = fp1&^(0xff<<bs1) | tb<<bs1
			b1[fj1] = uint64(iv1)
			ee1 := b2u(pv1 != invalidTag)
			c1 += ee1<<20 | (ee1&(pv1>>63))<<40
			g2 := la & k2
			tg2 := la >> s2
			bi2 := (g2 << 4) & q2
			fj2 := (bi2 | 1) & q2
			fp2 := b2[bi2]
			iv2 := uint32(b2[fj2])
			t2 := iv2 + 0x11111111
			vv2 := uint64(bits.TrailingZeros32(t2&0x88888888)) >> 2
			iv2 = t2 & 0x77777777
			pi2 := (bi2 + 2 + vv2) & q2
			pv2 := b2[pi2]
			b2[pi2] = tg2 | wd
			bs2 := (vv2 * 8) & 63
			b2[bi2] = fp2&^(0xff<<bs2) | tb<<bs2
			b2[fj2] = uint64(iv2)
			ee2 := b2u(pv2 != invalidTag)
			c2 += ee2<<20 | (ee2&(pv2>>63))<<40
			g3 := la & k3
			tg3 := la >> s3
			bi3 := (g3 << 4) & q3
			fj3 := (bi3 | 1) & q3
			fp3 := b3[bi3]
			iv3 := uint32(b3[fj3])
			t3 := iv3 + 0x11111111
			vv3 := uint64(bits.TrailingZeros32(t3&0x88888888)) >> 2
			iv3 = t3 & 0x77777777
			pi3 := (bi3 + 2 + vv3) & q3
			pv3 := b3[pi3]
			b3[pi3] = tg3 | wd
			bs3 := (vv3 * 8) & 63
			b3[bi3] = fp3&^(0xff<<bs3) | tb<<bs3
			b3[fj3] = uint64(iv3)
			ee3 := b2u(pv3 != invalidTag)
			c3 += ee3<<20 | (ee3&(pv3>>63))<<40
			g4 := la & k4
			tg4 := la >> s4
			bi4 := (g4 << 4) & q4
			fj4 := (bi4 | 1) & q4
			fp4 := b4[bi4]
			iv4 := uint32(b4[fj4])
			t4 := iv4 + 0x11111111
			vv4 := uint64(bits.TrailingZeros32(t4&0x88888888)) >> 2
			iv4 = t4 & 0x77777777
			pi4 := (bi4 + 2 + vv4) & q4
			pv4 := b4[pi4]
			b4[pi4] = tg4 | wd
			bs4 := (vv4 * 8) & 63
			b4[bi4] = fp4&^(0xff<<bs4) | tb<<bs4
			b4[fj4] = uint64(iv4)
			ee4 := b2u(pv4 != invalidTag)
			c4 += ee4<<20 | (ee4&(pv4>>63))<<40
			continue
		}
		g1 := la & k1
		tg1 := la >> s1
		bi1 := (g1 << 4) & q1
		fj1 := (bi1 | 1) & q1
		fp1 := b1[bi1]
		iv1 := uint32(b1[fj1])
		x1 := fp1 ^ xb
		z1 := ^(x1 | ((x1 | swarHi) - swarLo)) & swarHi
		hit1 := false
		if z1 != 0 {
			cc1 := uint64(bits.TrailingZeros64(z1)) >> 3
			ci1 := (bi1 + 2 + cc1) & q1
			wc1 := b1[ci1]
			ok1 := wc1&^dirtyFlag == tg1
			if !ok1 && z1&(z1-1) != 0 {
				cc1, ci1, wc1, ok1 = permRare(b1, z1, bi1, tg1, q1)
			}
			if ok1 {
				sh1 := (uint32(cc1) * 4) & 31
				dd1 := (iv1 >> sh1) & 0xf
				lt1 := dd1*0x11111111 + 0x77777777 - iv1
				iv1 = (iv1 + (lt1&0x88888888)>>3) &^ (0xf << sh1)
				b1[ci1&q1] = wc1 | wd
				b1[fj1] = uint64(iv1)
				c1++
				hit1 = true
			}
		}
		if !hit1 {
			t1 := iv1 + 0x11111111
			vv1 := uint64(bits.TrailingZeros32(t1&0x88888888)) >> 2
			iv1 = t1 & 0x77777777
			pi1 := (bi1 + 2 + vv1) & q1
			pv1 := b1[pi1]
			b1[pi1] = tg1 | wd
			bs1 := (vv1 * 8) & 63
			b1[bi1] = fp1&^(0xff<<bs1) | tb<<bs1
			b1[fj1] = uint64(iv1)
			ee1 := b2u(pv1 != invalidTag)
			c1 += ee1<<20 | (ee1&(pv1>>63))<<40
			g2 := la & k2
			tg2 := la >> s2
			bi2 := (g2 << 4) & q2
			fj2 := (bi2 | 1) & q2
			fp2 := b2[bi2]
			iv2 := uint32(b2[fj2])
			t2 := iv2 + 0x11111111
			vv2 := uint64(bits.TrailingZeros32(t2&0x88888888)) >> 2
			iv2 = t2 & 0x77777777
			pi2 := (bi2 + 2 + vv2) & q2
			pv2 := b2[pi2]
			b2[pi2] = tg2 | wd
			bs2 := (vv2 * 8) & 63
			b2[bi2] = fp2&^(0xff<<bs2) | tb<<bs2
			b2[fj2] = uint64(iv2)
			ee2 := b2u(pv2 != invalidTag)
			c2 += ee2<<20 | (ee2&(pv2>>63))<<40
			g3 := la & k3
			tg3 := la >> s3
			bi3 := (g3 << 4) & q3
			fj3 := (bi3 | 1) & q3
			fp3 := b3[bi3]
			iv3 := uint32(b3[fj3])
			t3 := iv3 + 0x11111111
			vv3 := uint64(bits.TrailingZeros32(t3&0x88888888)) >> 2
			iv3 = t3 & 0x77777777
			pi3 := (bi3 + 2 + vv3) & q3
			pv3 := b3[pi3]
			b3[pi3] = tg3 | wd
			bs3 := (vv3 * 8) & 63
			b3[bi3] = fp3&^(0xff<<bs3) | tb<<bs3
			b3[fj3] = uint64(iv3)
			ee3 := b2u(pv3 != invalidTag)
			c3 += ee3<<20 | (ee3&(pv3>>63))<<40
			g4 := la & k4
			tg4 := la >> s4
			bi4 := (g4 << 4) & q4
			fj4 := (bi4 | 1) & q4
			fp4 := b4[bi4]
			iv4 := uint32(b4[fj4])
			t4 := iv4 + 0x11111111
			vv4 := uint64(bits.TrailingZeros32(t4&0x88888888)) >> 2
			iv4 = t4 & 0x77777777
			pi4 := (bi4 + 2 + vv4) & q4
			pv4 := b4[pi4]
			b4[pi4] = tg4 | wd
			bs4 := (vv4 * 8) & 63
			b4[bi4] = fp4&^(0xff<<bs4) | tb<<bs4
			b4[fj4] = uint64(iv4)
			ee4 := b2u(pv4 != invalidTag)
			c4 += ee4<<20 | (ee4&(pv4>>63))<<40
			continue
		}
		g2 := la & k2
		tg2 := la >> s2
		bi2 := (g2 << 4) & q2
		fj2 := (bi2 | 1) & q2
		fp2 := b2[bi2]
		iv2 := uint32(b2[fj2])
		x2 := fp2 ^ xb
		z2 := ^(x2 | ((x2 | swarHi) - swarLo)) & swarHi
		hit2 := false
		if z2 != 0 {
			cc2 := uint64(bits.TrailingZeros64(z2)) >> 3
			ci2 := (bi2 + 2 + cc2) & q2
			wc2 := b2[ci2]
			ok2 := wc2&^dirtyFlag == tg2
			if !ok2 && z2&(z2-1) != 0 {
				cc2, ci2, wc2, ok2 = permRare(b2, z2, bi2, tg2, q2)
			}
			if ok2 {
				sh2 := (uint32(cc2) * 4) & 31
				dd2 := (iv2 >> sh2) & 0xf
				lt2 := dd2*0x11111111 + 0x77777777 - iv2
				iv2 = (iv2 + (lt2&0x88888888)>>3) &^ (0xf << sh2)
				b2[ci2&q2] = wc2 | wd
				b2[fj2] = uint64(iv2)
				c2++
				hit2 = true
			}
		}
		if !hit2 {
			t2 := iv2 + 0x11111111
			vv2 := uint64(bits.TrailingZeros32(t2&0x88888888)) >> 2
			iv2 = t2 & 0x77777777
			pi2 := (bi2 + 2 + vv2) & q2
			pv2 := b2[pi2]
			b2[pi2] = tg2 | wd
			bs2 := (vv2 * 8) & 63
			b2[bi2] = fp2&^(0xff<<bs2) | tb<<bs2
			b2[fj2] = uint64(iv2)
			ee2 := b2u(pv2 != invalidTag)
			c2 += ee2<<20 | (ee2&(pv2>>63))<<40
			g3 := la & k3
			tg3 := la >> s3
			bi3 := (g3 << 4) & q3
			fj3 := (bi3 | 1) & q3
			fp3 := b3[bi3]
			iv3 := uint32(b3[fj3])
			t3 := iv3 + 0x11111111
			vv3 := uint64(bits.TrailingZeros32(t3&0x88888888)) >> 2
			iv3 = t3 & 0x77777777
			pi3 := (bi3 + 2 + vv3) & q3
			pv3 := b3[pi3]
			b3[pi3] = tg3 | wd
			bs3 := (vv3 * 8) & 63
			b3[bi3] = fp3&^(0xff<<bs3) | tb<<bs3
			b3[fj3] = uint64(iv3)
			ee3 := b2u(pv3 != invalidTag)
			c3 += ee3<<20 | (ee3&(pv3>>63))<<40
			g4 := la & k4
			tg4 := la >> s4
			bi4 := (g4 << 4) & q4
			fj4 := (bi4 | 1) & q4
			fp4 := b4[bi4]
			iv4 := uint32(b4[fj4])
			t4 := iv4 + 0x11111111
			vv4 := uint64(bits.TrailingZeros32(t4&0x88888888)) >> 2
			iv4 = t4 & 0x77777777
			pi4 := (bi4 + 2 + vv4) & q4
			pv4 := b4[pi4]
			b4[pi4] = tg4 | wd
			bs4 := (vv4 * 8) & 63
			b4[bi4] = fp4&^(0xff<<bs4) | tb<<bs4
			b4[fj4] = uint64(iv4)
			ee4 := b2u(pv4 != invalidTag)
			c4 += ee4<<20 | (ee4&(pv4>>63))<<40
			continue
		}
		g3 := la & k3
		tg3 := la >> s3
		bi3 := (g3 << 4) & q3
		fj3 := (bi3 | 1) & q3
		fp3 := b3[bi3]
		iv3 := uint32(b3[fj3])
		x3 := fp3 ^ xb
		z3 := ^(x3 | ((x3 | swarHi) - swarLo)) & swarHi
		hit3 := false
		if z3 != 0 {
			cc3 := uint64(bits.TrailingZeros64(z3)) >> 3
			ci3 := (bi3 + 2 + cc3) & q3
			wc3 := b3[ci3]
			ok3 := wc3&^dirtyFlag == tg3
			if !ok3 && z3&(z3-1) != 0 {
				cc3, ci3, wc3, ok3 = permRare(b3, z3, bi3, tg3, q3)
			}
			if ok3 {
				sh3 := (uint32(cc3) * 4) & 31
				dd3 := (iv3 >> sh3) & 0xf
				lt3 := dd3*0x11111111 + 0x77777777 - iv3
				iv3 = (iv3 + (lt3&0x88888888)>>3) &^ (0xf << sh3)
				b3[ci3&q3] = wc3 | wd
				b3[fj3] = uint64(iv3)
				c3++
				hit3 = true
			}
		}
		if !hit3 {
			t3 := iv3 + 0x11111111
			vv3 := uint64(bits.TrailingZeros32(t3&0x88888888)) >> 2
			iv3 = t3 & 0x77777777
			pi3 := (bi3 + 2 + vv3) & q3
			pv3 := b3[pi3]
			b3[pi3] = tg3 | wd
			bs3 := (vv3 * 8) & 63
			b3[bi3] = fp3&^(0xff<<bs3) | tb<<bs3
			b3[fj3] = uint64(iv3)
			ee3 := b2u(pv3 != invalidTag)
			c3 += ee3<<20 | (ee3&(pv3>>63))<<40
			g4 := la & k4
			tg4 := la >> s4
			bi4 := (g4 << 4) & q4
			fj4 := (bi4 | 1) & q4
			fp4 := b4[bi4]
			iv4 := uint32(b4[fj4])
			t4 := iv4 + 0x11111111
			vv4 := uint64(bits.TrailingZeros32(t4&0x88888888)) >> 2
			iv4 = t4 & 0x77777777
			pi4 := (bi4 + 2 + vv4) & q4
			pv4 := b4[pi4]
			b4[pi4] = tg4 | wd
			bs4 := (vv4 * 8) & 63
			b4[bi4] = fp4&^(0xff<<bs4) | tb<<bs4
			b4[fj4] = uint64(iv4)
			ee4 := b2u(pv4 != invalidTag)
			c4 += ee4<<20 | (ee4&(pv4>>63))<<40
			continue
		}
		g4 := la & k4
		tg4 := la >> s4
		bi4 := (g4 << 4) & q4
		fj4 := (bi4 | 1) & q4
		fp4 := b4[bi4]
		iv4 := uint32(b4[fj4])
		x4 := fp4 ^ xb
		z4 := ^(x4 | ((x4 | swarHi) - swarLo)) & swarHi
		hit4 := false
		if z4 != 0 {
			cc4 := uint64(bits.TrailingZeros64(z4)) >> 3
			ci4 := (bi4 + 2 + cc4) & q4
			wc4 := b4[ci4]
			ok4 := wc4&^dirtyFlag == tg4
			if !ok4 && z4&(z4-1) != 0 {
				cc4, ci4, wc4, ok4 = permRare(b4, z4, bi4, tg4, q4)
			}
			if ok4 {
				sh4 := (uint32(cc4) * 4) & 31
				dd4 := (iv4 >> sh4) & 0xf
				lt4 := dd4*0x11111111 + 0x77777777 - iv4
				iv4 = (iv4 + (lt4&0x88888888)>>3) &^ (0xf << sh4)
				b4[ci4&q4] = wc4 | wd
				b4[fj4] = uint64(iv4)
				c4++
				hit4 = true
			}
		}
		if !hit4 {
			t4 := iv4 + 0x11111111
			vv4 := uint64(bits.TrailingZeros32(t4&0x88888888)) >> 2
			iv4 = t4 & 0x77777777
			pi4 := (bi4 + 2 + vv4) & q4
			pv4 := b4[pi4]
			b4[pi4] = tg4 | wd
			bs4 := (vv4 * 8) & 63
			b4[bi4] = fp4&^(0xff<<bs4) | tb<<bs4
			b4[fj4] = uint64(iv4)
			ee4 := b2u(pv4 != invalidTag)
			c4 += ee4<<20 | (ee4&(pv4>>63))<<40
		}
	}
	return [5]uint64{c0, c1, c2, c3, c4}
}
