//! A small variational autoencoder over dense feature vectors.
//!
//! This is the substrate for the paper's **VAE / gAQP baseline**
//! (Thirumuruganathan et al., ICDE 2020): tuples are encoded as numeric
//! feature vectors, the VAE learns their distribution, and synthetic tuples
//! are decoded from latent samples. The ASQP-RL evaluation uses it as the
//! representative generative-model competitor.

use crate::matrix::Matrix;
use crate::mlp::{Activation, Mlp, MlpTape, TransposedWeights};
use crate::optim::Adam;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Standard-normal sample via Box–Muller (keeps `rand_distr` out of this
/// crate's dependencies).
pub fn randn(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0f32 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// VAE configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VaeConfig {
    pub input_dim: usize,
    pub hidden_dim: usize,
    pub latent_dim: usize,
    pub learning_rate: f32,
    /// Weight of the KL term (β-VAE style; 1.0 = classic ELBO).
    pub beta: f32,
}

impl VaeConfig {
    pub fn new(input_dim: usize, latent_dim: usize) -> Self {
        VaeConfig {
            input_dim,
            hidden_dim: (input_dim * 2).max(16),
            latent_dim,
            learning_rate: 1e-3,
            beta: 1.0,
        }
    }
}

/// Encoder (x → μ, log σ²), decoder (z → x̂), trained with the
/// reparameterisation trick and MSE reconstruction loss.
#[derive(Debug, Clone)]
pub struct Vae {
    pub config: VaeConfig,
    encoder: Mlp,
    decoder: Mlp,
    enc_opt: Adam,
    dec_opt: Adam,
}

impl Vae {
    pub fn new(config: VaeConfig, rng: &mut impl Rng) -> Self {
        let encoder = Mlp::new(
            &[config.input_dim, config.hidden_dim, config.latent_dim * 2],
            Activation::Relu,
            rng,
        );
        let decoder = Mlp::new(
            &[config.latent_dim, config.hidden_dim, config.input_dim],
            Activation::Relu,
            rng,
        );
        let enc_opt = Adam::new(config.learning_rate).with_max_grad_norm(Some(5.0));
        let dec_opt = Adam::new(config.learning_rate).with_max_grad_norm(Some(5.0));
        Vae {
            config,
            encoder,
            decoder,
            enc_opt,
            dec_opt,
        }
    }

    /// One gradient step on a batch (rows = samples). Returns
    /// `(reconstruction_mse, kl)` for monitoring.
    pub fn train_step(&mut self, batch: &Matrix, rng: &mut impl Rng) -> (f32, f32) {
        let n = batch.rows() as f32;
        let z_dim = self.config.latent_dim;

        // Encode.
        let mut enc_tape = MlpTape::default();
        self.encoder.forward_tape(batch, &mut enc_tape);
        let enc_out = enc_tape.output(); // [n, 2z]
        let mut mu = Matrix::zeros(batch.rows(), z_dim);
        let mut logvar = Matrix::zeros(batch.rows(), z_dim);
        for r in 0..batch.rows() {
            for c in 0..z_dim {
                *mu.at_mut(r, c) = enc_out.at(r, c);
                // Clamp for numeric stability.
                *logvar.at_mut(r, c) = enc_out.at(r, z_dim + c).clamp(-8.0, 8.0);
            }
        }

        // Reparameterise: z = mu + eps * exp(logvar/2).
        let mut eps = Matrix::zeros(batch.rows(), z_dim);
        for v in eps.data_mut() {
            *v = randn(rng);
        }
        let sigma = logvar.map(|lv| (0.5 * lv).exp());
        let z = mu.add(&eps.hadamard(&sigma));

        // Decode.
        let mut dec_tape = MlpTape::default();
        self.decoder.forward_tape(&z, &mut dec_tape);

        // Losses.
        let diff = dec_tape.output().sub(batch);
        let mse = diff.data().iter().map(|d| d * d).sum::<f32>() / n;
        let kl = {
            let mut s = 0.0;
            for r in 0..batch.rows() {
                for c in 0..z_dim {
                    let m = mu.at(r, c);
                    let lv = logvar.at(r, c);
                    s += -0.5 * (1.0 + lv - m * m - lv.exp());
                }
            }
            s / n
        };

        // Backprop. dMSE/drecon = 2*diff / n.
        let drecon = diff.scale(2.0 / n);
        let mut wt = TransposedWeights::default();
        self.decoder.transpose_weights_into(true, &mut wt);
        self.decoder.backward_tape(&z, &drecon, &wt, &mut dec_tape);
        let dz = dec_tape.input_grad();

        // Through reparameterisation + KL into the encoder head.
        let beta = self.config.beta;
        let mut denc = Matrix::zeros(batch.rows(), 2 * z_dim);
        for r in 0..batch.rows() {
            for c in 0..z_dim {
                let m = mu.at(r, c);
                let lv = logvar.at(r, c);
                let e = eps.at(r, c);
                let dzd = dz.at(r, c);
                // d(z)/d(mu) = 1 ; d(z)/d(logvar) = eps * 0.5 * exp(logvar/2)
                let dmu = dzd + beta * m / n;
                let dlv = dzd * e * 0.5 * (0.5 * lv).exp() + beta * (-0.5) * (1.0 - lv.exp()) / n;
                *denc.at_mut(r, c) = dmu;
                *denc.at_mut(r, z_dim + c) = dlv;
            }
        }
        self.encoder.transpose_weights_into(false, &mut wt);
        self.encoder.backward_tape(batch, &denc, &wt, &mut enc_tape);

        self.enc_opt
            .step(self.encoder.params_with_grads(enc_tape.grads()));
        self.dec_opt
            .step(self.decoder.params_with_grads(dec_tape.grads()));
        (mse, kl)
    }

    /// Train for `epochs` over `data` with the given batch size.
    pub fn fit(
        &mut self,
        data: &Matrix,
        epochs: usize,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Vec<(f32, f32)> {
        let n = data.rows();
        let mut history = Vec::with_capacity(epochs);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..epochs {
            // Shuffle sample order.
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_mse = 0.0;
            let mut epoch_kl = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(batch_size.max(1)) {
                let mut batch = Matrix::zeros(chunk.len(), data.cols());
                for (bi, &ri) in chunk.iter().enumerate() {
                    batch.row_mut(bi).copy_from_slice(data.row(ri));
                }
                let (mse, kl) = self.train_step(&batch, rng);
                epoch_mse += mse;
                epoch_kl += kl;
                batches += 1;
            }
            history.push((
                epoch_mse / batches.max(1) as f32,
                epoch_kl / batches.max(1) as f32,
            ));
        }
        history
    }

    /// Decode `count` latent samples into synthetic feature vectors.
    pub fn sample(&self, count: usize, rng: &mut impl Rng) -> Matrix {
        let mut z = Matrix::zeros(count, self.config.latent_dim);
        for v in z.data_mut() {
            *v = randn(rng);
        }
        self.decoder.infer(&z)
    }

    /// Encode then decode (reconstruction without sampling noise: z = μ).
    pub fn reconstruct(&self, x: &Matrix) -> Matrix {
        let enc = self.encoder.infer(x);
        let mut mu = Matrix::zeros(x.rows(), self.config.latent_dim);
        for r in 0..x.rows() {
            for c in 0..self.config.latent_dim {
                *mu.at_mut(r, c) = enc.at(r, c);
            }
        }
        self.decoder.infer(&mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randn_roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<f32> = (0..20000).map(|_| randn(&mut rng)).collect();
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn vae_learns_a_simple_distribution() {
        let mut rng = StdRng::seed_from_u64(9);
        // Two clusters in 4-D.
        let n = 200;
        let mut data = Matrix::zeros(n, 4);
        for r in 0..n {
            let center = if r % 2 == 0 { 1.0 } else { -1.0 };
            for c in 0..4 {
                *data.at_mut(r, c) = center + 0.05 * randn(&mut rng);
            }
        }
        let mut vae = Vae::new(VaeConfig::new(4, 2), &mut rng);
        let history = vae.fit(&data, 60, 32, &mut rng);
        let first = history.first().unwrap().0;
        let last = history.last().unwrap().0;
        assert!(
            last < first * 0.5,
            "reconstruction should improve: {first} -> {last}"
        );

        // Samples should land near one of the two cluster centres.
        let samples = vae.sample(50, &mut rng);
        let near = samples
            .data()
            .chunks(4)
            .filter(|row| {
                let m = row.iter().sum::<f32>() / 4.0;
                (m.abs() - 1.0).abs() < 0.8
            })
            .count();
        assert!(near > 25, "only {near}/50 samples near a cluster");
    }

    #[test]
    fn reconstruct_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let vae = Vae::new(VaeConfig::new(6, 3), &mut rng);
        let x = Matrix::zeros(5, 6);
        let r = vae.reconstruct(&x);
        assert_eq!(r.shape(), (5, 6));
    }
}
