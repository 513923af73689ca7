//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// The eight-lane Barnes–Hut walk: walk4_amd64.s over ZMM registers,
// with opmasks in place of blends (DESIGN.md, "Lanes in lock step").
// Lane l is active at node i iff resume[l] <= i; every lane adds exactly
// the terms of its scalar Repulsion walk, with the same IEEE operations
// on the same operands in the same order. A term enters an accumulator
// through a merge-masked add, so a lane outside the mask is never
// rounded. No FMA, and only VEX and EVEX encodings.

DATA consts8<>+0(SB)/8, $0x3d719799812dea11    // 1e-12, repel's floor on d²
DATA consts8<>+8(SB)/8, $0x3fefffffff768fa1    // farFilter's bandLo: 1 - 1e-9
DATA consts8<>+16(SB)/8, $0x3ff000000044b830   // bandHi: 1 + 1e-9
DATA consts8<>+24(SB)/8, $0x07b0000000000000   // minD2: 2^-900
DATA consts8<>+32(SB)/8, $0x7830000000000000   // maxD2: 2^900
GLOBL consts8<>(SB), RODATA|NOPTR, $40

// TERM adds the node's repulsion term (DX: node, Z8/Z9: dx/dy, Z10: d²)
// to the accumulators Z3/Z4 in the lanes of mask K: d² = max(1e-12, d²)
// with a NaN d² passing through, s = (m·ck2)/d², acc += (dx·s)·mi.
// Clobbers Z8-Z10 and Z14.
#define TERM(K) \
	VMAXPD       Z10, Z16, Z10; \
	VBROADCASTSD flatNode_m(DX), Z14; \
	VMULPD       Z21, Z14, Z14; \
	VDIVPD       Z10, Z14, Z14; \
	VMULPD       Z14, Z8, Z8; \
	VMULPD       Z14, Z9, Z9; \
	VMULPD       Z2, Z8, Z8; \
	VMULPD       Z2, Z9, Z9; \
	VADDPD       Z8, Z3, K, Z3; \
	VADDPD       Z9, Z4, K, Z4

// func walk8(flat []flatNode, grp *Group, th2, ck2 float64) bool
//
// Registers: AX flat, BX len(flat), CX node i, DX &flat[i], SI grp,
// R8 pt, R10 skip; Z0/Z1 query x/y, Z2 mi, Z3/Z4 acc x/y, Z5 resume,
// Z6 exclude, Z7 th2, Z16-Z20 1e-12, bandLo, bandHi, minD2 and maxD2,
// Z21 ck2; K1 active lanes (resume <= i), K2 inactive lanes.
TEXT ·walk8(SB), NOSPLIT, $0-49
	MOVQ         flat_base+0(FP), AX
	MOVQ         flat_len+8(FP), BX
	MOVQ         grp+24(FP), SI
	VBROADCASTSD th2+32(FP), Z7
	VBROADCASTSD ck2+40(FP), Z21
	VBROADCASTSD consts8<>+0(SB), Z16
	VBROADCASTSD consts8<>+8(SB), Z17
	VBROADCASTSD consts8<>+16(SB), Z18
	VBROADCASTSD consts8<>+24(SB), Z19
	VBROADCASTSD consts8<>+32(SB), Z20
	VMOVUPD      Group_x(SI), Z0
	VMOVUPD      Group_y(SI), Z1
	VMOVUPD      Group_mi(SI), Z2
	VMOVUPD      Group_accX(SI), Z3
	VMOVUPD      Group_accY(SI), Z4
	VMOVDQU64    Group_resume(SI), Z5
	VMOVDQU64    Group_exclude(SI), Z6
	XORQ         CX, CX

loop:
	CMPQ         CX, BX
	JGE          done
	IMUL3Q       $flatNode__size, CX, DX
	ADDQ         AX, DX
	VBROADCASTSD flatNode_x(DX), Z8
	VBROADCASTSD flatNode_y(DX), Z9
	VSUBPD       Z8, Z0, Z8                     // dx = px - x
	VSUBPD       Z9, Z1, Z9                     // dy = py - y
	VMULPD       Z8, Z8, Z10
	VMULPD       Z9, Z9, Z11
	VADDPD       Z10, Z11, Z10                  // d² = dy² + dx²
	VPBROADCASTQ CX, Z11
	VPCMPQ       $2, Z11, Z5, K1                // active: resume <= i
	MOVLQSX      flatNode_pt(DX), R8
	TESTQ        R8, R8
	JLT          cell

	// Leaf: every active lane but the excluded one adds the point's
	// term, and every active lane resumes at i+1.
	VPBROADCASTQ R8, Z13
	VPCMPQ       $4, Z13, Z6, K1, K3            // adding: active, exclude != pt
	KORTESTB     K3, K3
	JEQ          leafnext
	TERM(K3)

leafnext:
	INCQ         CX
	VPBROADCASTQ CX, K1, Z5
	JMP          loop

cell:
	// farFilter for every active lane: far = w² < θ²d²·bandLo, near =
	// w² > θ²d²·bandHi, settled = (far or near) and d² in range.
	KNOTB        K1, K2
	VBROADCASTSD flatNode_w(DX), Z13
	VMULPD       Z13, Z13, Z13                  // w²
	VMULPD       Z10, Z7, Z14                   // q = θ²·d²
	VMULPD       Z18, Z14, Z15
	VCMPPD       $0x1e, Z15, Z13, K1, K3        // near: w² > q·bandHi (GT_OQ)
	VMULPD       Z17, Z14, Z14
	VCMPPD       $0x11, Z14, Z13, K1, K4        // far: w² < q·bandLo (LT_OQ)
	VCMPPD       $0x1d, Z19, Z10, K1, K5        // d² >= 2^-900 (GE_OQ)
	VCMPPD       $0x12, Z20, Z10, K5, K5        // d² <= 2^900 (LE_OQ)
	KORB         K3, K4, K6
	KANDB        K5, K6, K6
	KORTESTB     K2, K6
	JCC          fallback                       // an active lane needs farExact
	MOVLQSX      flatNode_skip(DX), R10
	KORTESTB     K2, K4
	JCC          opened

	// Every active lane accepts the cell: all resume past its subtree,
	// and so does the walk.
	VPBROADCASTQ R10, K1, Z5
	MOVQ         R10, CX
	TERM(K1)
	JMP          loop

opened:
	// Some active lane opens the cell: the walk steps to i+1. Accepting
	// lanes resume at skip and add the cluster term, opening lanes at
	// i+1.
	CMPQ         R8, $-1
	JLT          fallback                       // an opening lane meets a depth-cap residue
	LEAQ         1(CX), CX
	VPBROADCASTQ CX, K3, Z5
	VPBROADCASTQ R10, K4, Z5
	KORTESTB     K4, K4
	JEQ          loop
	TERM(K4)
	JMP          loop

done:
	VMOVUPD      Z3, Group_accX(SI)
	VMOVUPD      Z4, Group_accY(SI)
	VZEROUPPER
	MOVB         $1, ret+48(FP)
	RET

fallback:
	VZEROUPPER
	MOVB         $0, ret+48(FP)
	RET
