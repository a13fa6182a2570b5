//! Cache-blocked GEMM kernel with packed B-panels.
//!
//! The summation-order contract (see `docs/performance.md`): for every
//! output element `out[i][j]`, products `a[i][p] * b[p][j]` are accumulated
//! in ascending-`p` order, and products whose `a[i][p]` compares equal to
//! `0.0` are skipped — exactly the order and skip rule of the original
//! streaming i-k-j kernel. Blocking only changes *which other* elements are
//! computed between two updates of the same element, never the sequence of
//! updates one element sees, so results are bit-identical to the naive
//! kernel for every shape (the unit tests below pin this against
//! `naive_gemm`, a frozen test-only copy of the pre-blocking kernel).
//!
//! Blocking scheme:
//!
//! * `KC × NC` panels of `B` are packed contiguously into workspace scratch,
//!   sized to sit in L2 while the inner loops run out of L1;
//! * rows of `A` are processed `MR` at a time against the packed panel,
//!   with an `MR × NR` block of `out` held in register accumulators across
//!   the panel depth, so each loaded `B` value feeds `MR` rows and each
//!   output value round-trips memory once per panel instead of once per
//!   `p`;
//! * small problems (`m·k·n` below [`DIRECT_FLOP_LIMIT`]) skip packing
//!   entirely and run the streaming kernel — identical bits, no overhead.

use crate::Workspace;

/// Rows of `A` processed per packed-panel sweep (the register tile height).
const MR: usize = 4;
/// Output columns held in register accumulators per micro-kernel call;
/// `MR × NR` floats must fit the vector register file.
const NR: usize = 16;
/// `k`-extent of a packed panel.
const KC: usize = 256;
/// `n`-extent of a packed panel. `KC × NC × 4` bytes = 1 MiB: half a
/// typical L2, leaving room for the `MR` output-row segments and `A` rows.
const NC: usize = 1024;
/// Problems with fewer multiply-adds than this run the direct streaming
/// kernel; packing overhead only amortises above it.
pub(crate) const DIRECT_FLOP_LIMIT: usize = 64 * 64 * 64;

/// Accumulates `out += A · B` for row-major `A (m×k)`, `B (k×n)`,
/// `out (m×n)`.
///
/// `out` is *accumulated into*, not overwritten: callers pass a zeroed
/// buffer for a plain product. All scratch comes from `ws`.
pub(crate) fn gemm(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * k * n <= DIRECT_FLOP_LIMIT {
        gemm_direct(a, b, out, m, k, n);
        return;
    }

    let avx = avx_available();
    let mut panel = ws.take(KC.min(k) * NC.min(n));
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Pack B[pc..pc+kc, jc..jc+nc] row-contiguously.
            for pi in 0..kc {
                let src = (pc + pi) * n + jc;
                panel[pi * nc..(pi + 1) * nc].copy_from_slice(&b[src..src + nc]);
            }
            let panel = &panel[..kc * nc];

            let mut i = 0;
            while i + MR <= m {
                if avx {
                    // SAFETY: `avx_available` confirmed AVX support on
                    // this CPU at runtime.
                    unsafe { tile_avx::<MR>(a, panel, out, i, k, n, jc, nc, pc, kc) }
                } else {
                    tile::<MR>(a, panel, out, i, k, n, jc, nc, pc, kc);
                }
                i += MR;
            }
            // Tail rows (m not a multiple of MR): one row at a time.
            while i < m {
                let orow = &mut out[i * n + jc..i * n + jc + nc];
                for pi in 0..kc {
                    let av = a[i * k + (pc + pi)];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &panel[pi * nc..(pi + 1) * nc];
                    for (ov, &bv) in orow.iter_mut().zip(brow) {
                        *ov += av * bv;
                    }
                }
                i += 1;
            }
        }
    }
    ws.give(panel);
}

/// Accumulates an `R`-row register tile against the packed panel: `out`
/// rows `i..i+R`, columns `jc..jc+nc`, panel rows `0..kc` (i.e. `A`
/// columns `pc..pc+kc`).
///
/// The inner micro-kernel holds an `R × NR` block of `out` in register
/// accumulators across the whole panel depth, so each output value is
/// loaded and stored once per panel instead of once per `p`. For a fixed
/// element that changes nothing observable: its partial sums still arrive
/// in ascending-`p` order, and a row whose `A` element is ±0.0 skips its
/// fused multiply-add for that `p`, reproducing the streaming kernel's
/// zero-skip rule bit-for-bit.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize>(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    i: usize,
    k: usize,
    n: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
) {
    tile_body::<R>(a, panel, out, i, k, n, jc, nc, pc, kc);
}

/// [`tile`] compiled with AVX enabled so the accumulator loops
/// autovectorize 8-wide. Only `avx` is enabled — never `fma` — so LLVM
/// emits separate IEEE multiplies and adds and results stay bit-identical
/// to the scalar path.
///
/// # Safety
///
/// The CPU must support AVX (checked by [`avx_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx<const R: usize>(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    i: usize,
    k: usize,
    n: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
) {
    tile_body::<R>(a, panel, out, i, k, n, jc, nc, pc, kc);
}

/// Fallback stub so the dispatch site compiles on non-x86 targets; the
/// runtime check in [`avx_available`] guarantees it is never reached.
#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx<const R: usize>(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    i: usize,
    k: usize,
    n: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
) {
    tile_body::<R>(a, panel, out, i, k, n, jc, nc, pc, kc);
}

/// Whether the running CPU supports AVX (always false off x86-64).
fn avx_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The shared register-tile body (see [`tile`] for the contract).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_body<const R: usize>(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    i: usize,
    k: usize,
    n: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
) {
    let mut jr = 0;
    while jr + NR <= nc {
        let mut acc = [[0.0f32; NR]; R];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&out[(i + r) * n + jc + jr..][..NR]);
        }
        for pi in 0..kc {
            let bseg = &panel[pi * nc + jr..][..NR];
            let avs: [f32; R] = core::array::from_fn(|r| a[(i + r) * k + pc + pi]);
            if avs.iter().all(|&v| v != 0.0) {
                // Hot path: no branches, R×NR independent multiply-adds.
                for (acc_row, &av) in acc.iter_mut().zip(&avs) {
                    for (ov, &bv) in acc_row.iter_mut().zip(bseg) {
                        *ov += av * bv;
                    }
                }
            } else {
                // Zero-skip path: drop exactly the rows whose A element
                // is ±0.0, as the streaming kernel does.
                for (acc_row, &av) in acc.iter_mut().zip(&avs) {
                    if av != 0.0 {
                        for (ov, &bv) in acc_row.iter_mut().zip(bseg) {
                            *ov += av * bv;
                        }
                    }
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            out[(i + r) * n + jc + jr..][..NR].copy_from_slice(acc_row);
        }
        jr += NR;
    }
    // Column tail (nc not a multiple of NR): per-row streaming updates,
    // same ascending-p order and zero-skip rule.
    if jr < nc {
        for pi in 0..kc {
            let bseg = &panel[pi * nc + jr..pi * nc + nc];
            for r in 0..R {
                let av = a[(i + r) * k + pc + pi];
                if av != 0.0 {
                    let orow = &mut out[(i + r) * n + jc + jr..(i + r) * n + jc + nc];
                    for (ov, &bv) in orow.iter_mut().zip(bseg) {
                        *ov += av * bv;
                    }
                }
            }
        }
    }
}

/// The streaming i-k-j kernel: no packing, same accumulation order and
/// zero-skip rule. Used below [`DIRECT_FLOP_LIMIT`], where `B` fits in
/// cache and packing would be pure overhead.
fn gemm_direct(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    }
}

/// Frozen copy of the pre-blocking streaming kernel: the bit-identity
/// reference for every GEMM-backed kernel's tests. Do not "improve" it —
/// [`gemm_direct`] is live code and may change; this copy may not.
#[cfg(test)]
pub(crate) fn naive_gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aip * bv;
            }
        }
    }
}

/// Writes `src`ᵀ into `dst` for row-major `src (rows×cols)`;
/// `dst` receives the `cols×rows` transpose. Scratch-friendly transpose
/// used by the fused `matmul_tn`/`matmul_nt` variants.
pub(crate) fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for i in 0..rows {
        for (j, &v) in src[i * cols..(i + 1) * cols].iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        naive_gemm(a, b, &mut out, m, k, n);
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn pattern(len: usize, sparsity: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if sparsity > 0 && i % sparsity == 0 {
                    0.0
                } else {
                    ((i * 2_654_435_761 % 1000) as f32 - 500.0) / 250.0
                }
            })
            .collect()
    }

    #[test]
    fn blocked_matches_reference_bitwise_across_shapes() {
        let mut ws = Workspace::new();
        // Shapes straddling every blocking edge: tiny, tails in each of
        // m/k/n, exact multiples, and zero-heavy inputs.
        for &(m, k, n, sparsity) in &[
            (1, 1, 1, 0),
            (3, 7, 5, 0),
            (4, 256, 1024, 0),
            (5, 257, 1025, 3),
            (33, 300, 130, 4),
            (64, 512, 48, 0),
            (17, 513, 2048, 7),
            (14, 300, 1100, 0),
            (15, 257, 1025, 3),
        ] {
            let a = pattern(m * k, sparsity);
            let b = pattern(k * n, 0);
            let want = reference(&a, &b, m, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm(&a, &b, &mut got, m, k, n, &mut ws);
            assert_eq!(bits(&want), bits(&got), "bit mismatch at {m}x{k}x{n} sparsity {sparsity}");
        }
    }

    /// The zero-skip rule is observable: a product whose `A` element is
    /// ±0.0 is skipped, so ±∞/NaN in the matching `B` row never reaches
    /// the output. Pinned on a direct size and on a blocked size whose
    /// shape has full register tiles, a column tail, a row tail and two
    /// `KC` panels.
    #[test]
    fn zero_in_a_skips_non_finite_b() {
        let mut ws = Workspace::new();
        for &(m, k, n, blocked) in &[(3, 7, 5, false), (5, 300, 200, true)] {
            assert_eq!(m * k * n > DIRECT_FLOP_LIMIT, blocked, "{m}x{k}x{n} must take its path");
            let mut a = pattern(m * k, 0);
            let mut b = pattern(k * n, 0);
            for (p, poison) in [(0, f32::INFINITY), (k / 2, f32::NAN), (k - 1, f32::NEG_INFINITY)] {
                for i in 0..m {
                    a[i * k + p] = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                b[p * n..(p + 1) * n].fill(poison);
            }
            let want = reference(&a, &b, m, k, n);
            assert!(want.iter().all(|v| v.is_finite()), "reference must skip ±0.0 products");
            let mut got = vec![0.0f32; m * n];
            gemm(&a, &b, &mut got, m, k, n, &mut ws);
            assert_eq!(bits(&want), bits(&got), "zero-skip diverged at {m}x{k}x{n}");
        }
    }

    #[test]
    fn transpose_into_round_trips() {
        let src: Vec<f32> = (0..6).map(|v| v as f32).collect();
        let mut t = vec![0.0f32; 6];
        transpose_into(&src, &mut t, 2, 3);
        assert_eq!(t, &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        let mut back = vec![0.0f32; 6];
        transpose_into(&t, &mut back, 3, 2);
        assert_eq!(back, src);
    }
}
