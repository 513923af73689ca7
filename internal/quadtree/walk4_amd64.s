//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// The four-lane Barnes–Hut walk (DESIGN.md, "The Barnes–Hut force
// kernel"). Lane l is active at node i iff resume[l] <= i; every lane adds
// exactly the terms of its scalar Repulsion walk, with the same IEEE
// operations on the same operands in the same order. No FMA, and only
// VEX encodings in the loop.

// Four copies each of 1e-12 (repel's floor on d²) and of farFilter's
// bounds: 1 - 1e-9, 1 + 1e-9, 2^-900 and 2^900.
DATA eps<>+0(SB)/8, $0x3d719799812dea11
DATA eps<>+8(SB)/8, $0x3d719799812dea11
DATA eps<>+16(SB)/8, $0x3d719799812dea11
DATA eps<>+24(SB)/8, $0x3d719799812dea11
GLOBL eps<>(SB), RODATA|NOPTR, $32

DATA bandLo<>+0(SB)/8, $0x3fefffffff768fa1
DATA bandLo<>+8(SB)/8, $0x3fefffffff768fa1
DATA bandLo<>+16(SB)/8, $0x3fefffffff768fa1
DATA bandLo<>+24(SB)/8, $0x3fefffffff768fa1
GLOBL bandLo<>(SB), RODATA|NOPTR, $32

DATA bandHi<>+0(SB)/8, $0x3ff000000044b830
DATA bandHi<>+8(SB)/8, $0x3ff000000044b830
DATA bandHi<>+16(SB)/8, $0x3ff000000044b830
DATA bandHi<>+24(SB)/8, $0x3ff000000044b830
GLOBL bandHi<>(SB), RODATA|NOPTR, $32

DATA minD2<>+0(SB)/8, $0x07b0000000000000
DATA minD2<>+8(SB)/8, $0x07b0000000000000
DATA minD2<>+16(SB)/8, $0x07b0000000000000
DATA minD2<>+24(SB)/8, $0x07b0000000000000
GLOBL minD2<>(SB), RODATA|NOPTR, $32

DATA maxD2<>+0(SB)/8, $0x7830000000000000
DATA maxD2<>+8(SB)/8, $0x7830000000000000
DATA maxD2<>+16(SB)/8, $0x7830000000000000
DATA maxD2<>+24(SB)/8, $0x7830000000000000
GLOBL maxD2<>(SB), RODATA|NOPTR, $32

// TERM adds the node's repulsion term (DX: node, Y8/Y9: dx/dy, Y10: d²)
// to the accumulators Y3/Y4 in every lane whose bit in keep is clear:
// d² = max(1e-12, d²) with a NaN d² passing through, s = (m·ck2)/d²,
// acc += (dx·s)·mi. Clobbers Y8-Y10 and Y14.
#define TERM(keep) \
	VMOVUPD      eps<>(SB), Y14; \
	VMAXPD       Y10, Y14, Y10; \
	VMOVSD       flatNode_m(DX), X14; \
	VMULSD       ck2+48(FP), X14, X14; \
	VBROADCASTSD X14, Y14; \
	VDIVPD       Y10, Y14, Y14; \
	VMULPD       Y14, Y8, Y8; \
	VMULPD       Y14, Y9, Y9; \
	VMULPD       Y2, Y8, Y8; \
	VMULPD       Y2, Y9, Y9; \
	VADDPD       Y8, Y3, Y8; \
	VADDPD       Y9, Y4, Y9; \
	VBLENDVPD    keep, Y3, Y8, Y3; \
	VBLENDVPD    keep, Y4, Y9, Y4

// BROADCASTQ sets every lane of Y to the integer in R.
#define BROADCASTQ(R, X, Y) \
	VMOVQ        R, X; \
	VPBROADCASTQ X, Y

// func walk4(flat []flatNode, grp *Group, lane0 int, th2, ck2 float64) bool
//
// Registers: AX flat, BX len(flat), CX node i, DX &flat[i], SI &lane
// lane0 of grp (each Group field at its own offset from SI),
// R8 pt, R10 skip; Y0/Y1 query x/y, Y2 mi, Y3/Y4 acc x/y, Y5 resume,
// Y6 exclude, Y7 th2, Y12 inactive lanes (resume > i).
TEXT ·walk4(SB), NOSPLIT, $0-57
	MOVQ         flat_base+0(FP), AX
	MOVQ         flat_len+8(FP), BX
	MOVQ         grp+24(FP), SI
	MOVQ         lane0+32(FP), R11
	LEAQ         (SI)(R11*8), SI
	VBROADCASTSD th2+40(FP), Y7
	VMOVUPD      Group_x(SI), Y0
	VMOVUPD      Group_y(SI), Y1
	VMOVUPD      Group_mi(SI), Y2
	VMOVUPD      Group_accX(SI), Y3
	VMOVUPD      Group_accY(SI), Y4
	VMOVDQU      Group_resume(SI), Y5
	VMOVDQU      Group_exclude(SI), Y6
	XORQ         CX, CX

loop:
	CMPQ         CX, BX
	JGE          done
	IMUL3Q       $flatNode__size, CX, DX
	ADDQ         AX, DX
	VBROADCASTSD flatNode_x(DX), Y8
	VBROADCASTSD flatNode_y(DX), Y9
	VSUBPD       Y8, Y0, Y8                     // dx = px - x
	VSUBPD       Y9, Y1, Y9                     // dy = py - y
	VMULPD       Y8, Y8, Y10
	VMULPD       Y9, Y9, Y11
	VADDPD       Y10, Y11, Y10                  // d² = dy² + dx²
	BROADCASTQ(CX, X11, Y11)
	VPCMPGTQ     Y11, Y5, Y12                   // inactive: resume > i
	MOVLQSX      flatNode_pt(DX), R8
	TESTQ        R8, R8
	JLT          cell

	// Leaf: every active lane but the excluded one adds the point's
	// term, and every active lane resumes at i+1.
	BROADCASTQ(R8, X13, Y13)
	VPCMPEQQ     Y13, Y6, Y13
	VPOR         Y12, Y13, Y13                  // keep: inactive or excluded
	VMOVMSKPD    Y13, R9
	CMPQ         R9, $15
	JEQ          leafnext
	TERM(Y13)

leafnext:
	INCQ         CX
	BROADCASTQ(CX, X14, Y14)
	VBLENDVPD    Y12, Y5, Y14, Y5
	JMP          loop

cell:
	// farFilter for every lane: far = w² < θ²d²·bandLo, near =
	// w² > θ²d²·bandHi, settled = (far or near) and d² in range.
	VMOVSD       flatNode_w(DX), X13
	VMULSD       X13, X13, X13
	VBROADCASTSD X13, Y13                       // w²
	VMULPD       Y10, Y7, Y14                   // q = θ²·d²
	VMULPD       bandHi<>(SB), Y14, Y15
	VCMPPD       $0x1e, Y15, Y13, Y15           // near: w² > q·bandHi (GT_OQ)
	VMULPD       bandLo<>(SB), Y14, Y14
	VCMPPD       $0x11, Y14, Y13, Y14           // far: w² < q·bandLo (LT_OQ)
	VORPD        Y14, Y15, Y13
	VCMPPD       $0x1d, minD2<>(SB), Y10, Y11   // d² >= 2^-900 (GE_OQ)
	VANDPD       Y11, Y13, Y13
	VCMPPD       $0x12, maxD2<>(SB), Y10, Y11   // d² <= 2^900 (LE_OQ)
	VANDPD       Y11, Y13, Y13
	VORPD        Y12, Y13, Y13
	VMOVMSKPD    Y13, R9
	CMPQ         R9, $15
	JNE          fallback                       // an active lane needs farExact
	MOVLQSX      flatNode_skip(DX), R10
	VORPD        Y12, Y14, Y13                  // inactive or accepting
	VMOVMSKPD    Y13, R9
	CMPQ         R9, $15
	JNE          opened

	// Every active lane accepts the cell: all resume past its subtree,
	// and so does the walk.
	BROADCASTQ(R10, X13, Y13)
	VBLENDVPD    Y12, Y5, Y13, Y5
	MOVQ         R10, CX
	TERM(Y12)
	JMP          loop

opened:
	// Some active lane opens the cell: the walk steps to i+1. Accepting
	// lanes resume at skip and add the cluster term, opening lanes at
	// i+1.
	CMPQ         R8, $-1
	JLT          fallback                       // an opening lane meets a depth-cap residue
	LEAQ         1(CX), CX
	BROADCASTQ(CX, X13, Y13)
	BROADCASTQ(R10, X11, Y11)
	VBLENDVPD    Y14, Y11, Y13, Y13             // far ? skip : i+1
	VBLENDVPD    Y12, Y5, Y13, Y5
	VORPD        Y12, Y15, Y15                  // keep: inactive or near
	VMOVMSKPD    Y15, R9
	CMPQ         R9, $15
	JEQ          loop
	TERM(Y15)
	JMP          loop

done:
	VMOVUPD      Y3, Group_accX(SI)
	VMOVUPD      Y4, Group_accY(SI)
	VZEROUPPER
	MOVB         $1, ret+56(FP)
	RET

fallback:
	VZEROUPPER
	MOVB         $0, ret+56(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL         eaxArg+0(FP), AX
	MOVL         ecxArg+4(FP), CX
	CPUID
	MOVL         AX, eax+8(FP)
	MOVL         BX, ebx+12(FP)
	MOVL         CX, ecx+16(FP)
	MOVL         DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL         $0, CX
	XGETBV
	MOVL         AX, eax+0(FP)
	MOVL         DX, edx+4(FP)
	RET
