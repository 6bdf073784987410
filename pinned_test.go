package mincore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mincore/internal/data"
	"mincore/internal/geom"
)

// buildPins records the public outputs of every pinnedBuilds request:
// |Q|, the FNV-64a hash of the index sequence (order included), the
// bits of the measured loss (and of the ε FixedSize found), the
// algorithm that produced the result and the repair trail — or the
// error text of a failed request. The table was written by a run of
// the build pipeline in which DSMC and SCMC still ran on a separate
// ξ-point instance, so any change to what a build returns fails
// TestBuildOutputsPinned. The loss bits of 71 rows were re-pinned when
// the exact loss oracle moved from the per-owner dual LP to the gauge
// LP of conv(Q): they moved by at most 4.4e-16, and no size, index
// sequence, algorithm, trail, FixedSize ε or error changed. Every 2D
// Auto and OptMC row but the two of messy-d2 at ε 0.02, 22 in all, was
// re-pinned when OptMC became the circular arc cover alone: below 600
// candidates, which every pinned 2D build has, it had run Algorithm 1's
// overlap graph and shortest cycle. Both are optimal, so every |Q|,
// algorithm and trail held; the cover picks another optimal set, which
// moved the index sequence and, in 16 of the rows, the loss.
// messy-d4/auto/0.02 was re-pinned when Auto in d ≥ 4 became SCMC
// alone: DSMC and SCMC tie there at 56 points, and Auto, which had kept
// DSMC's set on a tie, now returns SCMC's. Its |Q|, algorithm and trail
// held; it now reads as the messy-d4/scmc/0.02 row with algo=auto. The
// loss bits of 24 2D rows were re-pinned when the gauge LP became the
// exact oracle in 2D too, in place of the critical-direction sweep: the
// two read the same loss in different floating-point order, and the
// values moved by at most 2.2e-16. No size, index sequence, algorithm,
// trail, FixedSize ε or error changed, and no row in d ≥ 3 moved. The
// 11 fixed20 rows were re-pinned when FixedSize became the plain
// bisection of (0, 1) over certified probes: its bracket had been
// shrunk from the cache, so its answer depended on the builds before
// it. Each row is now what FixedSize(20, DSMC) returned on a Coreseter
// with no earlier build, before the change. In 2D only the ε moved
// (from about 6.1e-7 to 2⁻²⁰); no other row moved.
var buildPins = map[string]string{
	"normal-d2/auto/0.20":     "n=6 idx=0x5ed412d7569c94d0 loss=0x3fc86d035bc08120 algo=auto fb=[]",
	"normal-d2/dsmc/0.20":     "n=7 idx=0x609382e3d7c0f3a8 loss=0x3fc7024c0c451908 algo=dsmc fb=[]",
	"normal-d2/scmc/0.20":     "n=8 idx=0x220ef5d7c5191c5e loss=0x3fbae8b83486e168 algo=scmc fb=[]",
	"normal-d2/optmc/0.20":    "n=6 idx=0x5ed412d7569c94d0 loss=0x3fc86d035bc08120 algo=optmc fb=[]",
	"normal-d2/auto/0.10":     "n=8 idx=0x5e9f97c84210043a loss=0x3fac1f86de271570 algo=auto fb=[]",
	"normal-d2/dsmc/0.10":     "n=8 idx=0x3cd870b52499d175 loss=0x3fa183a9f8cd8780 algo=dsmc fb=[]",
	"normal-d2/scmc/0.10":     "n=8 idx=0x776e9ea786e4fbc5 loss=0x3fa183a9f8cd8780 algo=scmc fb=[]",
	"normal-d2/optmc/0.10":    "n=8 idx=0x5e9f97c84210043a loss=0x3fac1f86de271570 algo=optmc fb=[]",
	"normal-d2/auto/0.05":     "n=8 idx=0x051ee67b271131b5 loss=0x3fa183a9f8cd8780 algo=auto fb=[]",
	"normal-d2/dsmc/0.05":     "n=8 idx=0x7c36094a43550c45 loss=0x3fa183a9f8cd8780 algo=dsmc fb=[]",
	"normal-d2/scmc/0.05":     "n=9 idx=0x2f3d8699ee3037c4 loss=0x3f9dccc587d9c260 algo=scmc fb=[]",
	"normal-d2/optmc/0.05":    "n=8 idx=0x051ee67b271131b5 loss=0x3fa183a9f8cd8780 algo=optmc fb=[]",
	"normal-d2/auto/0.02":     "n=11 idx=0xca57decde8bd5dae loss=0x3f90a16b38d9a660 algo=auto fb=[]",
	"normal-d2/dsmc/0.02":     "n=11 idx=0x8181e0d4675fadd2 loss=0x3f90a16b38d9a660 algo=dsmc fb=[]",
	"normal-d2/scmc/0.02":     "n=12 idx=0x44a95896046b6574 loss=0x0000000000000000 algo=scmc fb=[]",
	"normal-d2/optmc/0.02":    "n=11 idx=0xca57decde8bd5dae loss=0x3f90a16b38d9a660 algo=optmc fb=[]",
	"normal-d2/fixed20/dsmc":  "n=12 idx=0xed275b0626034034 loss=0x0000000000000000 eps=0x3eb0000000000000 algo=dsmc fb=[]",
	"uniform-d2/auto/0.20":    "n=4 idx=0x35a3e17699911d96 loss=0x3fc77232e6027b80 algo=auto fb=[]",
	"uniform-d2/dsmc/0.20":    "n=4 idx=0xdfcdae87d0a6159e loss=0x3fc4faedecc66f84 algo=dsmc fb=[]",
	"uniform-d2/scmc/0.20":    "n=4 idx=0x5a3727fc307cde8b loss=0x3fc11ef94a07f8e8 algo=scmc fb=[]",
	"uniform-d2/optmc/0.20":   "n=4 idx=0x35a3e17699911d96 loss=0x3fc77232e6027b80 algo=optmc fb=[]",
	"uniform-d2/auto/0.10":    "n=4 idx=0x23163ed3cd5700ce loss=0x3fb9797087fee8c0 algo=auto fb=[]",
	"uniform-d2/dsmc/0.10":    "n=4 idx=0xfd846dfe52b3d662 loss=0x3fb9797087fee8b0 algo=dsmc fb=[]",
	"uniform-d2/scmc/0.10":    "n=7 idx=0x4880b91f950efc68 loss=0x3faea023767f5610 algo=scmc fb=[]",
	"uniform-d2/optmc/0.10":   "n=4 idx=0x23163ed3cd5700ce loss=0x3fb9797087fee8c0 algo=optmc fb=[]",
	"uniform-d2/auto/0.05":    "n=7 idx=0xbbb1ce0d5eaab5da loss=0x3fa93aeebfde8450 algo=auto fb=[]",
	"uniform-d2/dsmc/0.05":    "n=7 idx=0x7d7f030100374062 loss=0x3f9d837431e820e0 algo=dsmc fb=[]",
	"uniform-d2/scmc/0.05":    "n=7 idx=0x01dcb9366db58f7a loss=0x3f9d837431e820e0 algo=scmc fb=[]",
	"uniform-d2/optmc/0.05":   "n=7 idx=0xbbb1ce0d5eaab5da loss=0x3fa93aeebfde8450 algo=optmc fb=[]",
	"uniform-d2/auto/0.02":    "n=8 idx=0xd0d1e39c7bd9afb9 loss=0x3f944024cadbcba0 algo=auto fb=[]",
	"uniform-d2/dsmc/0.02":    "n=8 idx=0x445d41df445c97d1 loss=0x3f944024cadbcba0 algo=dsmc fb=[]",
	"uniform-d2/scmc/0.02":    "n=10 idx=0xbf6b3c7865ab2503 loss=0x3f846a7883506280 algo=scmc fb=[]",
	"uniform-d2/optmc/0.02":   "n=8 idx=0xd0d1e39c7bd9afb9 loss=0x3f944024cadbcba0 algo=optmc fb=[]",
	"uniform-d2/fixed20/dsmc": "n=20 idx=0x7333e4d9438aa0f7 loss=0x0000000000000000 eps=0x3eb0000000000000 algo=dsmc fb=[]",
	"normal-d3/auto/0.20":     "n=15 idx=0x3e1d58ee0c58868e loss=0x3fc8632ac2ca47a8 algo=auto fb=[]",
	"normal-d3/dsmc/0.20":     "n=17 idx=0x4940b1877408bb6b loss=0x3fc5b136d810c6b8 algo=dsmc fb=[]",
	"normal-d3/scmc/0.20":     "n=15 idx=0x3e1d58ee0c58868e loss=0x3fc8632ac2ca47a8 algo=scmc fb=[]",
	"normal-d3/auto/0.10":     "n=19 idx=0x7e4ddb7ff6671a2b loss=0x3fb82a6d460056e0 algo=auto fb=[]",
	"normal-d3/dsmc/0.10":     "n=20 idx=0x694d7700ae23165b loss=0x3fb82a6d460056f0 algo=dsmc fb=[]",
	"normal-d3/scmc/0.10":     "n=19 idx=0x7e4ddb7ff6671a2b loss=0x3fb82a6d460056e0 algo=scmc fb=[]",
	"normal-d3/auto/0.05":     "n=26 idx=0x9908a901a3f89e1d loss=0x3fa086005974a200 algo=auto fb=[]",
	"normal-d3/dsmc/0.05":     "n=28 idx=0xd3f71d7e1148dc25 loss=0x3fa0d4fceecb92c0 algo=dsmc fb=[]",
	"normal-d3/scmc/0.05":     "n=26 idx=0x9908a901a3f89e1d loss=0x3fa086005974a200 algo=scmc fb=[]",
	"normal-d3/auto/0.02":     "n=32 idx=0x191bb5d22a9a2a8c loss=0x3f93a9a8709bdae0 algo=auto fb=[]",
	"normal-d3/dsmc/0.02":     "n=34 idx=0x3d3bf4995127ed58 loss=0x3f88af4e3b268840 algo=dsmc fb=[]",
	"normal-d3/scmc/0.02":     "n=32 idx=0x191bb5d22a9a2a8c loss=0x3f93a9a8709bdae0 algo=scmc fb=[]",
	"normal-d3/fixed20/dsmc":  "n=20 idx=0x6f28135aa11967a3 loss=0x3fb82a6d460056f0 eps=0x3fb9365000000000 algo=dsmc fb=[]",
	"uniform-d3/auto/0.20":    "n=8 idx=0x7f817cd28b13ad41 loss=0x3fc7c9e8301761cc algo=auto fb=[]",
	"uniform-d3/dsmc/0.20":    "n=8 idx=0x7f817cd28b13ad41 loss=0x3fc7c9e8301761cc algo=dsmc fb=[]",
	"uniform-d3/scmc/0.20":    "n=10 idx=0xe6f6d5a9f6e795b8 loss=0x3fc17a6913ff423c algo=scmc fb=[]",
	"uniform-d3/auto/0.10":    "n=15 idx=0x7d6dcf2566701df5 loss=0x3fb77efc72c32c58 algo=auto fb=[]",
	"uniform-d3/dsmc/0.10":    "n=19 idx=0x4addf3c6a886b399 loss=0x3fb3990d209c9950 algo=dsmc fb=[]",
	"uniform-d3/scmc/0.10":    "n=15 idx=0x7d6dcf2566701df5 loss=0x3fb77efc72c32c58 algo=scmc fb=[]",
	"uniform-d3/auto/0.05":    "n=22 idx=0x29f91b5cf9a86d06 loss=0x3fa972d3dbdcabf0 algo=auto fb=[]",
	"uniform-d3/dsmc/0.05":    "n=22 idx=0x29f91b5cf9a86d06 loss=0x3fa972d3dbdcabf0 algo=dsmc fb=[]",
	"uniform-d3/scmc/0.05":    "n=22 idx=0x3b2aa93ed60291d4 loss=0x3fa972d3dbdcabf0 algo=scmc fb=[]",
	"uniform-d3/auto/0.02":    "n=40 idx=0x4e9ebfeb5fe10dad loss=0x3f9442ab6e851d60 algo=auto fb=[]",
	"uniform-d3/dsmc/0.02":    "n=41 idx=0xab5df0f9d6ab166e loss=0x3f9018ab552ce180 algo=dsmc fb=[]",
	"uniform-d3/scmc/0.02":    "n=40 idx=0x4e9ebfeb5fe10dad loss=0x3f9442ab6e851d60 algo=scmc fb=[]",
	"uniform-d3/fixed20/dsmc": "n=18 idx=0xb0ca9a21661a1157 loss=0x3fb5c9f3e2249458 eps=0x3fb5ca0000000000 algo=dsmc fb=[]",
	"normal-d4/auto/0.20":     "n=28 idx=0x5d0195d09ebc6305 loss=0x3fc9294f5696fc8c algo=auto fb=[]",
	"normal-d4/dsmc/0.20":     "n=37 idx=0x7380f1ffc251db2d loss=0x3fc71532cba2510c algo=dsmc fb=[]",
	"normal-d4/scmc/0.20":     "n=28 idx=0x5d0195d09ebc6305 loss=0x3fc9294f5696fc8c algo=scmc fb=[]",
	"normal-d4/auto/0.10":     "n=42 idx=0xb1fab3c286b2adc6 loss=0x3fb915dc584bed50 algo=auto fb=[]",
	"normal-d4/dsmc/0.10":     "n=47 idx=0x541c9e07042dd68f loss=0x3fb915dc584bed50 algo=dsmc fb=[]",
	"normal-d4/scmc/0.10":     "n=42 idx=0xb1fab3c286b2adc6 loss=0x3fb915dc584bed50 algo=scmc fb=[]",
	"normal-d4/auto/0.05":     "n=57 idx=0x727ea51e464d6827 loss=0x3fa940362cc373f0 algo=auto fb=[]",
	"normal-d4/dsmc/0.05":     "n=60 idx=0x80cbd47c76cdd2c2 loss=0x3fa5ec0b5d165510 algo=dsmc fb=[]",
	"normal-d4/scmc/0.05":     "n=57 idx=0x727ea51e464d6827 loss=0x3fa940362cc373f0 algo=scmc fb=[]",
	"normal-d4/auto/0.02":     "n=70 idx=0xd0de507b2f6f5e8b loss=0x3f9173ffb2546aa0 algo=auto fb=[]",
	"normal-d4/dsmc/0.02":     "n=71 idx=0x8713085f24298ec5 loss=0x3f9173ffb2546aa0 algo=dsmc fb=[]",
	"normal-d4/scmc/0.02":     "n=70 idx=0xd0de507b2f6f5e8b loss=0x3f9173ffb2546aa0 algo=scmc fb=[]",
	"normal-d4/fixed20/dsmc":  "n=20 idx=0x276f92e38d28f770 loss=0x3fd6e3e883550f52 eps=0x3fd7eef000000000 algo=dsmc fb=[]",
	"uniform-d4/auto/0.20":    "n=26 idx=0x01460715c42a7f58 loss=0x3fc8e76ee9df341c algo=auto fb=[]",
	"uniform-d4/dsmc/0.20":    "n=28 idx=0x83931244fb760d40 loss=0x3fc776c5e55da98c algo=dsmc fb=[]",
	"uniform-d4/scmc/0.20":    "n=26 idx=0x01460715c42a7f58 loss=0x3fc8e76ee9df341c algo=scmc fb=[]",
	"uniform-d4/auto/0.10":    "n=45 idx=0xa719c4fbf2f7f918 loss=0x3fb8e8fca4d5f788 algo=auto fb=[]",
	"uniform-d4/dsmc/0.10":    "n=55 idx=0x721846de73de1c80 loss=0x3fb7fb6e0f92da10 algo=dsmc fb=[]",
	"uniform-d4/scmc/0.10":    "n=45 idx=0xa719c4fbf2f7f918 loss=0x3fb8e8fca4d5f788 algo=scmc fb=[]",
	"uniform-d4/auto/0.05":    "n=79 idx=0x5cfaddd148a70b81 loss=0x3fa95f47d5c0c980 algo=auto fb=[]",
	"uniform-d4/dsmc/0.05":    "n=93 idx=0x844104f827fb67d7 loss=0x3fa85b9cea86df80 algo=dsmc fb=[]",
	"uniform-d4/scmc/0.05":    "n=79 idx=0x5cfaddd148a70b81 loss=0x3fa95f47d5c0c980 algo=scmc fb=[]",
	"uniform-d4/auto/0.02":    "n=117 idx=0xfd611c50d5106dfd loss=0x3f94381520a463e0 algo=auto fb=[]",
	"uniform-d4/dsmc/0.02":    "n=130 idx=0x02ce3d0f2e43665e loss=0x3f93cad9368bf060 algo=dsmc fb=[]",
	"uniform-d4/scmc/0.02":    "n=117 idx=0xfd611c50d5106dfd loss=0x3f94381520a463e0 algo=scmc fb=[]",
	"uniform-d4/fixed20/dsmc": "n=17 idx=0xbc210593ba600ca3 loss=0x3fcf9cedf91b0530 eps=0x3fd059b400000000 algo=dsmc fb=[]",
	"normal-d5/auto/0.20":     "n=56 idx=0xfea6e01db3a6da21 loss=0x3fc9527fc6c200c8 algo=auto fb=[]",
	"normal-d5/dsmc/0.20":     "n=77 idx=0xa3f60fbdbaba4d8c loss=0x3fc60fc1cc9183e0 algo=dsmc fb=[]",
	"normal-d5/scmc/0.20":     "n=56 idx=0xfea6e01db3a6da21 loss=0x3fc9527fc6c200c8 algo=scmc fb=[]",
	"normal-d5/auto/0.10":     "n=97 idx=0x4d401a053ef2f894 loss=0x3fb8eca19ef39108 algo=auto fb=[]",
	"normal-d5/dsmc/0.10":     "n=115 idx=0xd2dad467e52eaf90 loss=0x3fb9182f6c0832e8 algo=dsmc fb=[]",
	"normal-d5/scmc/0.10":     "n=97 idx=0x4d401a053ef2f894 loss=0x3fb8eca19ef39108 algo=scmc fb=[]",
	"normal-d5/auto/0.05":     "n=129 idx=0xb3fa2034c5f9e8ba loss=0x3fa811ec2f0cf750 algo=auto fb=[]",
	"normal-d5/dsmc/0.05":     "n=138 idx=0xae6bbf33a7bafb2b loss=0x3fa811ec2f0cf750 algo=dsmc fb=[]",
	"normal-d5/scmc/0.05":     "n=129 idx=0xb3fa2034c5f9e8ba loss=0x3fa811ec2f0cf750 algo=scmc fb=[]",
	"normal-d5/auto/0.02":     "n=149 idx=0x85e3d54a9b50fab5 loss=0x3f9472fce3b85ba0 algo=auto fb=[]",
	"normal-d5/dsmc/0.02":     "n=158 idx=0xe6f7c3dd32959b56 loss=0x3f900ba854d4dec0 algo=dsmc fb=[]",
	"normal-d5/scmc/0.02":     "n=149 idx=0x85e3d54a9b50fab5 loss=0x3f9472fce3b85ba0 algo=scmc fb=[]",
	"normal-d5/fixed20/dsmc":  "n=20 idx=0xfe8310cc64ec4f47 loss=0x3fe2daf66d644f34 eps=0x3fe47fbc00000000 algo=dsmc fb=[]",
	"uniform-d5/auto/0.20":    "n=54 idx=0x1f101e0f9e5ce22a loss=0x3fc952151b775fb0 algo=auto fb=[]",
	"uniform-d5/dsmc/0.20":    "n=91 idx=0x5b3732035642625c loss=0x3fc4108883681ff0 algo=dsmc fb=[]",
	"uniform-d5/scmc/0.20":    "n=54 idx=0x1f101e0f9e5ce22a loss=0x3fc952151b775fb0 algo=scmc fb=[]",
	"uniform-d5/auto/0.10":    "n=103 idx=0xcbb2761f9b825f45 loss=0x3fb958de7a203800 algo=auto fb=[]",
	"uniform-d5/dsmc/0.10":    "n=179 idx=0xdaeaded8bea62f24 loss=0x3fb64e369176e128 algo=dsmc fb=[]",
	"uniform-d5/scmc/0.10":    "n=103 idx=0xcbb2761f9b825f45 loss=0x3fb958de7a203800 algo=scmc fb=[]",
	"uniform-d5/auto/0.05":    "n=174 idx=0xeab7ada5b9c63dc7 loss=0x3fa9630c6e52e1e0 algo=auto fb=[]",
	"uniform-d5/dsmc/0.05":    "n=226 idx=0x164c871e85cea8a1 loss=0x3fa8ec579daad310 algo=dsmc fb=[]",
	"uniform-d5/scmc/0.05":    "n=174 idx=0xeab7ada5b9c63dc7 loss=0x3fa9630c6e52e1e0 algo=scmc fb=[]",
	"uniform-d5/auto/0.02":    "n=253 idx=0x7aa74a2269931318 loss=0x3f93aea68839d940 algo=auto fb=[]",
	"uniform-d5/dsmc/0.02":    "n=282 idx=0xf015b788f0d31b36 loss=0x3f90d2d28b9750a0 algo=dsmc fb=[]",
	"uniform-d5/scmc/0.02":    "n=253 idx=0x7aa74a2269931318 loss=0x3f93aea68839d940 algo=scmc fb=[]",
	"uniform-d5/fixed20/dsmc": "n=19 idx=0x697ace085ea983ef loss=0x3fe1f6e6ed77b6d3 eps=0x3fe249f000000000 algo=dsmc fb=[]",
	"messy-d2/auto/0.20":      "n=5 idx=0xecdd8793d5878de8 loss=0x3fc95026b00c77fc algo=auto fb=[]",
	"messy-d2/dsmc/0.20":      "n=7 idx=0x9478a3dd5d1a8fdb loss=0x3fc95026b00c77fc algo=dsmc fb=[]",
	"messy-d2/scmc/0.20":      "n=8 idx=0x7dcebd4f9e2128c6 loss=0x3fbca392f420d9a0 algo=scmc fb=[]",
	"messy-d2/optmc/0.20":     "n=5 idx=0xecdd8793d5878de8 loss=0x3fc95026b00c77fc algo=optmc fb=[]",
	"messy-d2/auto/0.10":      "n=9 idx=0x8ef043efd825eb75 loss=0x3fb6cdbd85091a38 algo=auto fb=[]",
	"messy-d2/dsmc/0.10":      "n=9 idx=0x518bf45ab76a8a4b loss=0x3fa7b2be82adbf40 algo=dsmc fb=[]",
	"messy-d2/scmc/0.10":      "n=9 idx=0x2a4f9f606dd22b35 loss=0x3fa7b2be82adbf40 algo=scmc fb=[]",
	"messy-d2/optmc/0.10":     "n=9 idx=0x8ef043efd825eb75 loss=0x3fb6cdbd85091a38 algo=optmc fb=[]",
	"messy-d2/auto/0.05":      "n=9 idx=0x1d0f36cd37556d6b loss=0x3fa7b2be82adbf40 algo=auto fb=[]",
	"messy-d2/dsmc/0.05":      "n=9 idx=0xb4a6d419ce41d22b loss=0x3fa7b2be82adbf40 algo=dsmc fb=[]",
	"messy-d2/scmc/0.05":      "n=10 idx=0x5059e315c91b8f78 loss=0x3f9400b981c424a0 algo=scmc fb=[]",
	"messy-d2/optmc/0.05":     "n=9 idx=0x1d0f36cd37556d6b loss=0x3fa7b2be82adbf40 algo=optmc fb=[]",
	"messy-d2/auto/0.02":      "n=10 idx=0x82123f24ff7afc5c loss=0x3f9400b981c424a0 algo=auto fb=[]",
	"messy-d2/dsmc/0.02":      "n=11 idx=0xd2c54798f0802057 loss=0x3f8682857afa0bc0 algo=dsmc fb=[]",
	"messy-d2/scmc/0.02":      "n=11 idx=0xa5060099b0fe819f loss=0x3f8682857afa0bc0 algo=scmc fb=[]",
	"messy-d2/optmc/0.02":     "n=10 idx=0x82123f24ff7afc5c loss=0x3f9400b981c424a0 algo=optmc fb=[]",
	"messy-d2/fixed20/dsmc":   "n=12 idx=0xd9eb93a1f8bdabe7 loss=0x0000000000000000 eps=0x3eb0000000000000 algo=dsmc fb=[]",
	"messy-d3/auto/0.20":      "n=16 idx=0xe1d801d5848418d6 loss=0x3fc7e22e3c7be508 algo=auto fb=[]",
	"messy-d3/dsmc/0.20":      "n=18 idx=0x3e048be8c4db286d loss=0x3fbc7282e6e605f8 algo=dsmc fb=[]",
	"messy-d3/scmc/0.20":      "n=16 idx=0xe1d801d5848418d6 loss=0x3fc7e22e3c7be508 algo=scmc fb=[]",
	"messy-d3/auto/0.10":      "n=19 idx=0x6079a78e074b87bf loss=0x3fb7d1689ac031d0 algo=auto fb=[]",
	"messy-d3/dsmc/0.10":      "n=19 idx=0x6079a78e074b87bf loss=0x3fb7d1689ac031d0 algo=dsmc fb=[]",
	"messy-d3/scmc/0.10":      "n=19 idx=0x01f8bc46babd3fe7 loss=0x3fb484fdfaf38588 algo=scmc fb=[]",
	"messy-d3/auto/0.05":      "n=21 idx=0xef685b8438fee7e6 loss=0x3fa810563347b910 algo=auto fb=[]",
	"messy-d3/dsmc/0.05":      "n=22 idx=0xeee581b566876cb8 loss=0x3fa6a6c4ebb50030 algo=dsmc fb=[]",
	"messy-d3/scmc/0.05":      "n=21 idx=0xef685b8438fee7e6 loss=0x3fa810563347b910 algo=scmc fb=[]",
	"messy-d3/auto/0.02":      "n=27 idx=0xbb9139ce09767ae6 loss=0x3f8a6a8c3c73b180 algo=auto fb=[]",
	"messy-d3/dsmc/0.02":      "n=28 idx=0x163fd00574786c22 loss=0x3f745f1e3d1f0500 algo=dsmc fb=[]",
	"messy-d3/scmc/0.02":      "n=27 idx=0xbb9139ce09767ae6 loss=0x3f8a6a8c3c73b180 algo=scmc fb=[]",
	"messy-d3/fixed20/dsmc":   "n=20 idx=0x076a41826ee09945 loss=0x3fad7fd24d39d240 eps=0x3fb0682000000000 algo=dsmc fb=[]",
	"messy-d4/auto/0.20":      "n=26 idx=0x4e0c2c39ef4ff906 loss=0x3fc6e4f922f91f7c algo=auto fb=[]",
	"messy-d4/dsmc/0.20":      "n=31 idx=0x23513cb438c353ae loss=0x3fc8110fd63a9cbc algo=dsmc fb=[]",
	"messy-d4/scmc/0.20":      "n=26 idx=0x4e0c2c39ef4ff906 loss=0x3fc6e4f922f91f7c algo=scmc fb=[]",
	"messy-d4/auto/0.10":      "n=38 idx=0xe86a361f24474128 loss=0x3fb6a0a210164800 algo=auto fb=[]",
	"messy-d4/dsmc/0.10":      "n=42 idx=0xd0a79d707f322ca9 loss=0x3fb66dcd47bed290 algo=dsmc fb=[]",
	"messy-d4/scmc/0.10":      "n=38 idx=0xe86a361f24474128 loss=0x3fb6a0a210164800 algo=scmc fb=[]",
	"messy-d4/auto/0.05":      "n=50 idx=0xec42bfad10fb830b loss=0x3fa8d521325fb050 algo=auto fb=[]",
	"messy-d4/dsmc/0.05":      "n=52 idx=0x1ca2b53b66743585 loss=0x3fa191d11314f2a0 algo=dsmc fb=[]",
	"messy-d4/scmc/0.05":      "n=50 idx=0xec42bfad10fb830b loss=0x3fa8d521325fb050 algo=scmc fb=[]",
	"messy-d4/auto/0.02":      "n=56 idx=0x9e855c7ce1be3ff4 loss=0x3f9346325be7d660 algo=auto fb=[]",
	"messy-d4/dsmc/0.02":      "n=56 idx=0xa457b3a6851c4524 loss=0x3f9346325be7d6a0 algo=dsmc fb=[]",
	"messy-d4/scmc/0.02":      "n=56 idx=0x9e855c7ce1be3ff4 loss=0x3f9346325be7d660 algo=scmc fb=[]",
	"messy-d4/fixed20/dsmc":   "n=20 idx=0xb304304e8101e41c loss=0x3fd288d26c78d966 eps=0x3fd4ecec00000000 algo=dsmc fb=[]",
	"single/new":              "err mincore: every attribute is constant",
	"all-duplicate/new":       "err mincore: every attribute is constant",
	"all-collinear/auto/0.20": "n=80 idx=0x697b816e8efdc725 loss=0x0000000000000000 algo=ann fb=[retry(auto)#1 fallback(ann)]",
}

// pinnedBuildInput is one named input of the pinned build table; full
// inputs get the whole request ladder, the others one Auto build at
// ε 0.2.
type pinnedBuildInput struct {
	name string
	pts  []Point
	full bool
}

// pinnedBuildInputs returns NORMAL and UNIFORM (internal/data, n 1,000,
// seed 1) for d 2–5, the duplicate- and collinear-salted messyPoints
// clouds for d 2–4, and three degenerate inputs: a single point, an
// all-duplicate set and an all-collinear 3D line.
func pinnedBuildInputs() []pinnedBuildInput {
	var ins []pinnedBuildInput
	for d := 2; d <= 5; d++ {
		ins = append(ins,
			pinnedBuildInput{fmt.Sprintf("normal-d%d", d), toPoints(data.Normal(1000, d, 1).Points), true},
			pinnedBuildInput{fmt.Sprintf("uniform-d%d", d), toPoints(data.Uniform(1000, d, 1).Points), true})
	}
	for d := 2; d <= 4; d++ {
		ins = append(ins, pinnedBuildInput{fmt.Sprintf("messy-d%d", d), messyPoints(300, d, int64(100+d)), true})
	}
	dup := make([]Point, 50)
	for i := range dup {
		dup[i] = Point{4, 5}
	}
	line := make([]Point, 80)
	for i := range line {
		s := float64(i) / 79
		line[i] = Point{s, 2 * s, -s} // non-axis-aligned line through origin
	}
	return append(ins,
		pinnedBuildInput{"single", []Point{{1, 2, 3}}, false},
		pinnedBuildInput{"all-duplicate", dup, false},
		pinnedBuildInput{"all-collinear", line, false})
}

// messyPoints builds a seeded random cloud salted with exact duplicates
// and collinear (segment-midpoint) points — the inputs most likely to
// expose a build that mishandles non-extreme or degenerate points.
func messyPoints(n, d int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, 0, n+n/2)
	for i := 0; i < n; i++ {
		p := make(Point, d)
		for j := range p {
			p[j] = rng.NormFloat64()*2 + 3
		}
		pts = append(pts, p)
	}
	// Exact duplicates of existing points.
	for i := 0; i < n/4; i++ {
		src := pts[rng.Intn(n)]
		pts = append(pts, append(Point(nil), src...))
	}
	// Midpoints of random pairs: collinear with (and dominated by) their
	// endpoints, so they are never hull vertices.
	for i := 0; i < n/4; i++ {
		a, b := pts[rng.Intn(n)], pts[rng.Intn(n)]
		m := make(Point, d)
		for j := range m {
			m[j] = (a[j] + b[j]) / 2
		}
		pts = append(pts, m)
	}
	return pts
}

// toPoints converts a dataset's vectors to public points.
func toPoints(vs []geom.Vector) []Point {
	pts := make([]Point, len(vs))
	for i, v := range vs {
		pts[i] = Point(v)
	}
	return pts
}

// indexHash is the FNV-64a hash of an index sequence, each index written
// as a little-endian uint64.
func indexHash(x []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, i := range x {
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		h.Write(b[:])
	}
	return h.Sum64()
}

// pinRow renders one request's outcome as its pin string.
func pinRow(q *Coreset, err error, fixed bool) string {
	if err != nil {
		return "err " + err.Error()
	}
	s := fmt.Sprintf("n=%d idx=%#016x loss=%#016x", len(q.Indices), indexHash(q.Indices), math.Float64bits(q.Loss))
	if fixed {
		s += fmt.Sprintf(" eps=%#016x", math.Float64bits(q.Eps))
	}
	return s + fmt.Sprintf(" algo=%s fb=[%s]", q.Report.Algorithm, strings.Join(q.Report.Fallbacks, " "))
}

// pinnedBuilds runs every pinned request and returns the rows by label:
// one Coreseter per input (WithSeed(7)), ε 0.20/0.10/0.05/0.02 × Auto,
// DSMC and SCMC (plus OptMC in 2D), then one FixedSize(20, DSMC). The
// loss of every row is the gauge oracle's; in 2D its agreement with the
// critical-direction sweep is checked in internal/core, by
// TestGaugeOracleMatchesReference on the Auto and OptMC sets of 2D
// clouds.
func pinnedBuilds() map[string]string {
	rows := make(map[string]string)
	for _, in := range pinnedBuildInputs() {
		cs, err := New(in.pts, WithSeed(7))
		if err != nil {
			rows[in.name+"/new"] = pinRow(nil, err, false)
			continue
		}
		if !in.full {
			q, err := cs.Coreset(0.2, Auto)
			rows[in.name+"/auto/0.20"] = pinRow(q, err, false)
			continue
		}
		algos := []Algorithm{Auto, DSMC, SCMC}
		if cs.Dim() == 2 {
			algos = append(algos, OptMC)
		}
		for _, eps := range []float64{0.20, 0.10, 0.05, 0.02} {
			for _, a := range algos {
				q, err := cs.Coreset(eps, a)
				rows[fmt.Sprintf("%s/%s/%.2f", in.name, a, eps)] = pinRow(q, err, false)
			}
		}
		q, err := cs.FixedSize(20, DSMC)
		rows[in.name+"/fixed20/dsmc"] = pinRow(q, err, true)
	}
	return rows
}

// TestBuildOutputsPinned is the bitwise differential test of the public
// build pipeline: every pinned request returns the same indices in the
// same order, the same loss bits and the same report trail as the
// pinned run.
func TestBuildOutputsPinned(t *testing.T) {
	rows := pinnedBuilds()
	for label, got := range rows {
		want, ok := buildPins[label]
		if !ok {
			t.Errorf("no pin: %q: %q,", label, got)
			continue
		}
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", label, got, want)
		}
	}
	for label := range buildPins {
		if _, ok := rows[label]; !ok {
			t.Errorf("%s: pinned row not produced", label)
		}
	}
	checkAutoPolicyD4(t, rows)
}

// checkAutoPolicyD4 checks the d ≥ 4 Auto policy on the pinned rows of
// every full input in d ≥ 4 at every ε: (a) the Auto row is the SCMC
// row with algo=auto in place of algo=scmc, and (b) the SCMC row's |Q|
// is at most the DSMC row's. (b) is the premise of running SCMC alone:
// if it fails, the policy needs revisiting, not the pin.
func checkAutoPolicyD4(t *testing.T, rows map[string]string) {
	t.Helper()
	pairs := 0
	for _, in := range pinnedBuildInputs() {
		if !in.full || len(in.pts[0]) < 4 {
			continue
		}
		for _, eps := range []float64{0.20, 0.10, 0.05, 0.02} {
			row := func(a Algorithm) string { return rows[fmt.Sprintf("%s/%s/%.2f", in.name, a, eps)] }
			auto, dsmc, scmc := row(Auto), row(DSMC), row(SCMC)
			label := fmt.Sprintf("%s/%.2f", in.name, eps)
			if want := strings.Replace(scmc, " algo=scmc ", " algo=auto ", 1); auto != want {
				t.Errorf("%s: Auto is not SCMC:\n auto %s\n scmc %s", label, auto, scmc)
			}
			var nd, ns int
			if _, err := fmt.Sscanf(dsmc, "n=%d", &nd); err != nil {
				t.Errorf("%s: dsmc row %q: %v", label, dsmc, err)
			}
			if _, err := fmt.Sscanf(scmc, "n=%d", &ns); err != nil {
				t.Errorf("%s: scmc row %q: %v", label, scmc, err)
			}
			if ns > nd {
				t.Errorf("%s: SCMC |Q| %d exceeds DSMC |Q| %d", label, ns, nd)
			}
			pairs++
		}
	}
	if pairs != 20 {
		t.Errorf("checked %d (input, ε) pairs in d ≥ 4, want 20", pairs)
	}
}
