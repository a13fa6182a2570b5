//! Per-layer replays of `LeNet5` and `LstmClassifier`, built from the public
//! `pipetune-dnn` layers and trained on the same synthetic data the tuning
//! workloads generate, so real post-ReLU/pool gradient sparsity is kept.
//!
//! Each replay mirrors its model's private `train_epoch` step for step; the
//! parity check compares the replay's parameters after one epoch with the
//! model's own and with `WorkloadSpec::instantiate` + `run_epoch`, bit for
//! bit. A stale replay (the model changed, the replay did not) therefore
//! shows as `dnn.replay_parity = 0` instead of silently timing other code.

use std::collections::BTreeMap;
use std::time::Instant;

use pipetune::{EpochWorkload, HyperParams, WorkloadSpec};
use pipetune_data::{mnist_like, news20_like, ImageSpec, TextSpec};
use pipetune_dnn::{
    softmax_cross_entropy, BatchIndices, Conv2d, Dataset, Dense, DnnError, Dropout, Embedding,
    Flatten, LeNet5, LstmCell, LstmClassifier, MaxPool2d, Model, Param, Relu, Sgd, TrainConfig,
};
use pipetune_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seconds spent per layer stage over one epoch, keyed by metric stem
/// (`conv1.fwd_ms`, `loss_ms`, ...).
pub type EpochTimes = BTreeMap<&'static str, f64>;

macro_rules! lap {
    ($times:expr, $key:expr, $body:expr) => {{
        let start = Instant::now();
        let out = $body;
        *$times.entry($key).or_insert(0.0) += start.elapsed().as_secs_f64();
        out
    }};
}

/// The seed the workload's model initialisation draws from, given the
/// instantiation seed (`WorkloadSpec::instantiate`'s convention).
fn model_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5049_5045)
}

/// Dataset size after `WorkloadSpec::with_scale`'s multiplier.
fn scaled(n: usize, scale: f32) -> usize {
    ((n as f32 * scale) as usize).max(16)
}

fn train_config(hp: &HyperParams) -> TrainConfig {
    TrainConfig {
        batch_size: hp.batch_size,
        learning_rate: hp.learning_rate,
        momentum: 0.9,
        weight_decay: 0.0,
    }
}

/// Parameter values of the given layers, in visitation order.
macro_rules! values {
    ($($layer:expr),+) => {{
        let mut out: Vec<Tensor> = Vec::new();
        let mut push = |p: &mut Param| out.push(p.value().clone());
        $($layer.visit_params(&mut push);)+
        out
    }};
}

fn same_bits(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Operands and gradients captured from the first batch of a replayed
/// epoch, for the `tensor` kernel timings.
#[derive(Debug, Clone, Default)]
pub struct LenetCapture {
    pub conv1: Option<ConvOperands>,
    pub conv2: Option<ConvOperands>,
    /// `fc1` input and weight.
    pub fc1: Option<(Tensor, Tensor)>,
}

#[derive(Debug, Clone)]
pub struct ConvOperands {
    pub input: Tensor,
    pub weight: Tensor,
    pub bias: Tensor,
    /// The real gradient w.r.t. the layer's output (post-ReLU/pool mask).
    pub grad_output: Tensor,
}

/// `LeNet5::with_input_size(16, ..)` rebuilt from its public layers.
pub struct LenetReplay {
    conv1: Conv2d,
    relu1: Relu,
    pool1: MaxPool2d,
    conv2: Conv2d,
    relu2: Relu,
    pool2: MaxPool2d,
    flatten: Flatten,
    fc1: Dense,
    relu3: Relu,
    dropout: Dropout,
    fc2: Dense,
    relu4: Relu,
    fc3: Dense,
}

/// The image data `lenet/mnist` trains on at `scale`.
pub fn lenet_data(scale: f32, seed: u64) -> Result<Dataset, DnnError> {
    let spec = ImageSpec {
        train: scaled(256, scale),
        test: scaled(96, scale),
        ..ImageSpec::default()
    };
    Ok(mnist_like(&spec, seed)?.0)
}

impl LenetReplay {
    /// Same layer order and draws as `LeNet5::with_input_size(16, 10, ..)`:
    /// 16×16 inputs leave a 16×1×1 feature map before `fc1`.
    pub fn new(dropout: f32, rng: &mut StdRng) -> Result<Self, DnnError> {
        Ok(LenetReplay {
            conv1: Conv2d::new(1, 6, 5, rng),
            relu1: Relu::new(),
            pool1: MaxPool2d::new(2),
            conv2: Conv2d::new(6, 16, 5, rng),
            relu2: Relu::new(),
            pool2: MaxPool2d::new(2),
            flatten: Flatten::new(),
            fc1: Dense::new(16, 120, rng),
            relu3: Relu::new(),
            dropout: Dropout::new(dropout)?,
            fc2: Dense::new(120, 84, rng),
            relu4: Relu::new(),
            fc3: Dense::new(84, 10, rng),
        })
    }

    fn weights(&mut self) -> Vec<Tensor> {
        values!(self.conv1, self.conv2, self.fc1, self.fc2, self.fc3)
    }

    /// One epoch of `LeNet5::train_epoch`, timed per stage. With `capture`,
    /// the first batch's operands and gradients are copied out.
    pub fn train_epoch(
        &mut self,
        data: &Dataset,
        cfg: &TrainConfig,
        rng: &mut StdRng,
        times: &mut EpochTimes,
        mut capture: Option<&mut LenetCapture>,
    ) -> Result<(), DnnError> {
        cfg.validate()?;
        let sgd = Sgd::from_config(cfg);
        let plan = BatchIndices::plan(data.len(), cfg.batch_size, rng)?;
        for idx in plan.iter() {
            let x = data.gather_images(idx)?;
            let labels = data.gather_labels(idx);
            // Some on the first batch only; each copy below is taken then.
            let cap = capture.take();
            let copy = |t: &Tensor| cap.is_some().then(|| t.clone());
            let w1 = cap.is_some().then(|| values!(self.conv1));
            let y = lap!(times, "conv1.fwd_ms", {
                let y = self.conv1.forward(&x, true)?;
                self.relu1.forward(&y, true)
            });
            let y = lap!(times, "pool.fwd_ms", self.pool1.forward(&y, true)?);
            let (x2, w2) = (copy(&y), cap.is_some().then(|| values!(self.conv2)));
            let y = lap!(times, "conv2.fwd_ms", {
                let y = self.conv2.forward(&y, true)?;
                self.relu2.forward(&y, true)
            });
            let y = lap!(times, "pool.fwd_ms", {
                let y = self.pool2.forward(&y, true)?;
                self.flatten.forward(&y)?
            });
            let (x3, w3) = (copy(&y), cap.is_some().then(|| values!(self.fc1)));
            let logits = lap!(times, "fc.fwd_ms", {
                let y = self.fc1.forward(&y, true)?;
                let y = self.relu3.forward(&y, true);
                let y = self.dropout.forward(&y, true, rng);
                let y = self.fc2.forward(&y, true)?;
                let y = self.relu4.forward(&y, true);
                self.fc3.forward(&y, true)?
            });
            let grad = lap!(times, "loss_ms", {
                let (_loss, grad) = softmax_cross_entropy(&logits, &labels)?;
                let preds = logits.argmax_rows()?;
                std::hint::black_box(preds.iter().zip(&labels).filter(|(p, l)| p == l).count());
                grad
            });
            let g = lap!(times, "fc.bwd_ms", {
                let g = self.fc3.backward(&grad)?;
                let g = self.relu4.backward(&g)?;
                let g = self.fc2.backward(&g)?;
                let g = self.dropout.backward(&g)?;
                let g = self.relu3.backward(&g)?;
                self.fc1.backward(&g)?
            });
            let g = lap!(times, "pool.bwd_ms", {
                let g = self.flatten.backward(&g)?;
                self.pool2.backward(&g)?
            });
            let g = lap!(times, "conv2.bwd_ms", self.relu2.backward(&g)?);
            let g2 = copy(&g);
            let g = lap!(times, "conv2.bwd_ms", self.conv2.backward(&g)?);
            let g = lap!(times, "pool.bwd_ms", self.pool1.backward(&g)?);
            let g = lap!(times, "conv1.bwd_ms", self.relu1.backward(&g)?);
            let g1 = copy(&g);
            lap!(times, "conv1.bwd_ms", self.conv1.backward(&g)?);
            lap!(times, "sgd_ms", {
                let mut step = |p: &mut Param| sgd.step(p);
                self.conv1.visit_params(&mut step);
                self.conv2.visit_params(&mut step);
                self.fc1.visit_params(&mut step);
                self.fc2.visit_params(&mut step);
                self.fc3.visit_params(&mut step);
            });
            if let (Some(c), Some(w1), Some(x2), Some(w2), Some(g2), Some(x3), Some(w3), Some(g1)) =
                (cap, w1, x2, w2, g2, x3, w3, g1)
            {
                let conv = |input, w: Vec<Tensor>, grad_output| ConvOperands {
                    input,
                    weight: w[0].clone(),
                    bias: w[1].clone(),
                    grad_output,
                };
                c.conv1 = Some(conv(x, w1, g1));
                c.conv2 = Some(conv(x2, w2, g2));
                c.fc1 = Some((x3, w3[0].clone()));
            }
        }
        Ok(())
    }
}

/// `LstmClassifier` as `lstm/news20` builds it, from its public layers.
pub struct LstmReplay {
    embedding: Embedding,
    lstm: LstmCell,
    dropout: Dropout,
    fc: Dense,
}

/// `lstm/news20`'s data, vocabulary and sequence length at `scale`.
pub fn lstm_data(scale: f32, seed: u64) -> Result<(Dataset, TextSpec), DnnError> {
    let spec = TextSpec {
        train: scaled(160, scale),
        test: scaled(64, scale),
        seq_len: 12,
        ..TextSpec::default()
    };
    Ok((news20_like(&spec, seed)?.0, spec))
}

/// Hidden units of the `lstm/news20` classifier.
const LSTM_HIDDEN: usize = 16;

/// Operands of the input-gate GEMM `x_t · W_x` captured from a replay.
#[derive(Debug, Clone, Default)]
pub struct LstmCapture {
    pub gates: Option<(Tensor, Tensor)>,
}

impl LstmReplay {
    /// Same layer order and draws as the `LstmClassifier::new` call in
    /// `WorkloadSpec::instantiate`.
    pub fn new(text: &TextSpec, hp: &HyperParams, rng: &mut StdRng) -> Result<Self, DnnError> {
        Ok(LstmReplay {
            embedding: Embedding::new(text.vocab, hp.embedding_dim, rng),
            lstm: LstmCell::new(hp.embedding_dim, LSTM_HIDDEN, rng),
            dropout: Dropout::new(hp.dropout)?,
            fc: Dense::new(LSTM_HIDDEN, text.classes, rng),
        })
    }

    fn weights(&mut self) -> Vec<Tensor> {
        values!(self.embedding, self.lstm, self.fc)
    }

    /// One epoch of `LstmClassifier::train_epoch`, timed per stage.
    pub fn train_epoch(
        &mut self,
        data: &Dataset,
        cfg: &TrainConfig,
        rng: &mut StdRng,
        times: &mut EpochTimes,
        mut capture: Option<&mut LstmCapture>,
    ) -> Result<(), DnnError> {
        cfg.validate()?;
        let sgd = Sgd::from_config(cfg);
        let plan = BatchIndices::plan(data.len(), cfg.batch_size, rng)?;
        for idx in plan.iter() {
            let x = data.gather_tokens(idx)?;
            let labels = data.gather_labels(idx);
            let emb = lap!(times, "embedding.fwd_ms", self.embedding.forward(&x, true)?);
            if let Some(c) = capture.take() {
                let dims = emb.shape().dims();
                let (b, t, d) = (dims[0], dims[1], dims[2]);
                let step0: Vec<f32> = (0..b)
                    .flat_map(|bi| emb.data()[bi * t * d..bi * t * d + d].to_vec())
                    .collect();
                let wx = values!(self.lstm).swap_remove(0);
                c.gates = Some((Tensor::from_vec(step0, &[b, d])?, wx));
            }
            let h = lap!(times, "cell.fwd_ms", self.lstm.forward(&emb, true)?);
            let logits = lap!(times, "fc.fwd_ms", {
                let dropped = self.dropout.forward(&h, true, rng);
                self.fc.forward(&dropped, true)?
            });
            let grad = lap!(times, "loss_ms", {
                let (_loss, grad) = softmax_cross_entropy(&logits, &labels)?;
                let preds = logits.argmax_rows()?;
                std::hint::black_box(preds.iter().zip(&labels).filter(|(p, l)| p == l).count());
                grad
            });
            let g = lap!(times, "fc.bwd_ms", {
                let g = self.fc.backward(&grad)?;
                self.dropout.backward(&g)?
            });
            let gemb = lap!(times, "cell.bwd_ms", self.lstm.backward(&g)?);
            lap!(times, "embedding.bwd_ms", self.embedding.backward(&gemb)?);
            lap!(times, "sgd_ms", {
                let mut step = |p: &mut Param| sgd.step(p);
                self.embedding.visit_params(&mut step);
                self.lstm.visit_params(&mut step);
                self.fc.visit_params(&mut step);
            });
        }
        Ok(())
    }
}

/// Result of replaying one model over the sampled configurations.
#[derive(Debug, Default)]
pub struct ModelReplay {
    /// Per-epoch stage seconds of every timed epoch.
    pub epochs: Vec<EpochTimes>,
    /// Configurations whose first epoch matched bit for bit.
    pub parity_ok: usize,
    pub parity_checked: usize,
}

/// Parameters after one `WorkloadInstance::run_epoch` of `spec`.
fn instance_weights(
    spec: &WorkloadSpec,
    hp: &HyperParams,
    seed: u64,
) -> Result<Vec<Tensor>, String> {
    let mut inst = spec.instantiate(hp, seed).map_err(|e| e.to_string())?;
    inst.run_epoch().map_err(|e| e.to_string())?;
    inst.export_weights()
        .ok_or_else(|| "DNN workload exports weights".to_string())
}

/// Replays LeNet-5 for `1 + timed_epochs` epochs per configuration.
/// `capture` receives the operands of the first batch-32 configuration.
pub fn replay_lenet(
    scale: f32,
    configs: &[(HyperParams, u64)],
    timed_epochs: usize,
    capture: &mut LenetCapture,
) -> Result<ModelReplay, String> {
    let spec = WorkloadSpec::lenet_mnist().with_scale(scale);
    let mut out = ModelReplay::default();
    for (hp, seed) in configs {
        let cfg = train_config(hp);
        let data = lenet_data(scale, *seed).map_err(|e| e.to_string())?;
        let reference = instance_weights(&spec, hp, *seed)?;
        let mut rng = model_rng(*seed);
        let mut model =
            LeNet5::with_input_size(16, 10, hp.dropout, &mut rng).map_err(|e| e.to_string())?;
        model
            .train_epoch(&data, &cfg, &mut rng)
            .map_err(|e| e.to_string())?;
        let direct = model.export_weights();

        let mut rng = model_rng(*seed);
        let mut replay = LenetReplay::new(hp.dropout, &mut rng).map_err(|e| e.to_string())?;
        let want_capture = hp.batch_size == 32 && capture.conv1.is_none();
        let mut first = EpochTimes::new();
        replay
            .train_epoch(
                &data,
                &cfg,
                &mut rng,
                &mut first,
                want_capture.then_some(&mut *capture),
            )
            .map_err(|e| e.to_string())?;
        out.parity_checked += 1;
        if same_bits(&replay.weights(), &direct) && same_bits(&direct, &reference) {
            out.parity_ok += 1;
        }
        for _ in 0..timed_epochs {
            let mut times = EpochTimes::new();
            replay
                .train_epoch(&data, &cfg, &mut rng, &mut times, None)
                .map_err(|e| e.to_string())?;
            out.epochs.push(times);
        }
    }
    Ok(out)
}

/// Replays the LSTM classifier; see [`replay_lenet`].
pub fn replay_lstm(
    scale: f32,
    configs: &[(HyperParams, u64)],
    timed_epochs: usize,
    capture: &mut LstmCapture,
) -> Result<ModelReplay, String> {
    let spec = WorkloadSpec::lstm_news20().with_scale(scale);
    let mut out = ModelReplay::default();
    for (hp, seed) in configs {
        let cfg = train_config(hp);
        let (data, text) = lstm_data(scale, *seed).map_err(|e| e.to_string())?;
        let reference = instance_weights(&spec, hp, *seed)?;
        let mut rng = model_rng(*seed);
        let mut model = LstmClassifier::new(
            text.vocab,
            text.seq_len,
            hp.embedding_dim,
            LSTM_HIDDEN,
            text.classes,
            hp.dropout,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        model
            .train_epoch(&data, &cfg, &mut rng)
            .map_err(|e| e.to_string())?;
        let direct = model.export_weights();

        let mut rng = model_rng(*seed);
        let mut replay = LstmReplay::new(&text, hp, &mut rng).map_err(|e| e.to_string())?;
        let want_capture = hp.batch_size == 32 && capture.gates.is_none();
        let mut first = EpochTimes::new();
        replay
            .train_epoch(
                &data,
                &cfg,
                &mut rng,
                &mut first,
                want_capture.then_some(&mut *capture),
            )
            .map_err(|e| e.to_string())?;
        out.parity_checked += 1;
        if same_bits(&replay.weights(), &direct) && same_bits(&direct, &reference) {
            out.parity_ok += 1;
        }
        for _ in 0..timed_epochs {
            let mut times = EpochTimes::new();
            replay
                .train_epoch(&data, &cfg, &mut rng, &mut times, None)
                .map_err(|e| e.to_string())?;
            out.epochs.push(times);
        }
    }
    Ok(out)
}
