//! Layer measurements outside the tuning loop: the `workload` replay over a
//! seeded sample of configurations, and the `tensor` kernels on operands
//! captured from the `dnn` replays.

use pipetune::{EpochWorkload, HyperParams, HyperSpace, WorkloadSpec};
use pipetune_tensor::{conv2d_backward, conv2d_gemm_with, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::alloc::counted;
use crate::replay::{LenetCapture, LstmCapture};
use crate::util::{per_call_secs, timed};

/// The batch sizes of `HyperSpace::paper`, one sampled configuration each.
const BATCH_SIZES: [usize; 4] = [32, 64, 256, 1024];

/// A seeded sample of `HyperSpace::paper` configurations covering every
/// batch size, each with its own instantiation seed.
pub fn sample_configs(seed: u64, epochs_range: (i64, i64)) -> Vec<(HyperParams, u64)> {
    let space = HyperSpace::paper(epochs_range);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00B7_E15E);
    BATCH_SIZES
        .iter()
        .enumerate()
        .map(|(i, &batch)| {
            let mut hp = HyperParams::from_config(&space.sample(&mut rng));
            hp.batch_size = batch;
            (hp, seed.wrapping_mul(31).wrapping_add(i as u64))
        })
        .collect()
}

/// Samples from replaying `WorkloadSpec::instantiate`, `run_epoch` and
/// `accuracy` through the public `EpochWorkload` interface.
#[derive(Debug, Default)]
pub struct WorkloadReplay {
    pub instantiate_secs: Vec<f64>,
    pub epoch_secs: Vec<f64>,
    pub eval_secs: Vec<f64>,
    pub allocs_per_epoch: Vec<f64>,
    pub bytes_per_epoch: Vec<f64>,
    pub allocs_per_eval: Vec<f64>,
}

/// For every spec and configuration: one instantiation, one warm-up epoch,
/// `epochs` timed epochs and two timed evaluations.
pub fn replay_workload(
    specs: &[WorkloadSpec],
    configs: &[(HyperParams, u64)],
    epochs: usize,
) -> Result<WorkloadReplay, String> {
    let mut out = WorkloadReplay::default();
    for spec in specs {
        for (hp, seed) in configs {
            let (inst, secs) = timed(|| spec.instantiate(hp, *seed));
            let mut inst = inst.map_err(|e| e.to_string())?;
            out.instantiate_secs.push(secs);
            inst.run_epoch().map_err(|e| e.to_string())?;
            for _ in 0..epochs {
                let ((r, secs), allocs, bytes) = counted(|| timed(|| inst.run_epoch()));
                r.map_err(|e| e.to_string())?;
                out.epoch_secs.push(secs);
                out.allocs_per_epoch.push(allocs as f64);
                out.bytes_per_epoch.push(bytes as f64);
            }
            for _ in 0..2 {
                let ((r, secs), allocs, _) = counted(|| timed(|| inst.accuracy()));
                r.map_err(|e| e.to_string())?;
                out.eval_secs.push(secs);
                out.allocs_per_eval.push(allocs as f64);
            }
        }
    }
    Ok(out)
}

/// One timed kernel call on captured operands.
#[derive(Debug, Clone)]
pub struct KernelRow {
    pub name: &'static str,
    pub shape: String,
    pub flops: f64,
    pub secs: f64,
}

impl KernelRow {
    pub fn gflops(&self) -> f64 {
        self.flops / self.secs / 1e9
    }
}

/// How long each kernel is repeated for its median.
const KERNEL_SECS: f64 = 0.05;

/// Times the `tensor` kernels on the captured batch-32 operands: the
/// conv forward GEMMs, `fc1`'s GEMM, both conv backward passes on their
/// real (mostly zero) gradients, and the LSTM input-gate GEMM.
pub fn tensor_kernels(lenet: &LenetCapture, lstm: &LstmCapture) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    let mut ws = Workspace::new();
    for (name, conv) in [("conv1", &lenet.conv1), ("conv2", &lenet.conv2)] {
        let Some(c) = conv else { continue };
        let (x, w) = (c.input.shape().dims(), c.weight.shape().dims());
        let (oh, ow) = (x[2] - w[2] + 1, x[3] - w[3] + 1);
        let (m, k, n) = (x[0] * oh * ow, w[1] * w[2] * w[3], w[0]);
        let secs = per_call_secs(KERNEL_SECS, || {
            std::hint::black_box(
                conv2d_gemm_with(&c.input, &c.weight, &c.bias, &mut ws)
                    .expect("captured shapes agree"),
            );
        });
        rows.push(KernelRow {
            name,
            shape: format!("m={m} k={k} n={n}"),
            flops: 2.0 * (m * k * n) as f64,
            secs,
        });
    }
    if let Some((x, w)) = &lenet.fc1 {
        let (m, k, n) = (
            x.shape().dims()[0],
            x.shape().dims()[1],
            w.shape().dims()[1],
        );
        let secs = per_call_secs(KERNEL_SECS, || {
            std::hint::black_box(x.matmul_with(w, &mut ws).expect("captured shapes agree"));
        });
        rows.push(KernelRow {
            name: "fc1",
            shape: format!("m={m} k={k} n={n}"),
            flops: 2.0 * (m * k * n) as f64,
            secs,
        });
    }
    if let (Some(c1), Some(c2)) = (&lenet.conv1, &lenet.conv2) {
        let zeros = |t: &pipetune_tensor::Tensor| {
            t.data().iter().filter(|v| **v == 0.0).count() as f64 / t.len() as f64
        };
        let secs = per_call_secs(KERNEL_SECS, || {
            for c in [c1, c2] {
                std::hint::black_box(
                    conv2d_backward(&c.input, &c.weight, &c.grad_output)
                        .expect("captured shapes agree"),
                );
            }
        });
        rows.push(KernelRow {
            name: "conv_bwd",
            shape: format!(
                "conv1+conv2, dY zeros {:.0}%/{:.0}%",
                100.0 * zeros(&c1.grad_output),
                100.0 * zeros(&c2.grad_output)
            ),
            flops: f64::NAN,
            secs,
        });
    }
    if let Some((x, w)) = &lstm.gates {
        let (m, k, n) = (
            x.shape().dims()[0],
            x.shape().dims()[1],
            w.shape().dims()[1],
        );
        let secs = per_call_secs(KERNEL_SECS, || {
            std::hint::black_box(x.matmul_with(w, &mut ws).expect("captured shapes agree"));
        });
        rows.push(KernelRow {
            name: "lstm.gates",
            shape: format!("m={m} k={k} n={n}"),
            flops: 2.0 * (m * k * n) as f64,
            secs,
        });
    }
    rows
}
