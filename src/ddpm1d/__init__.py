"""ddpm1d: a desk-scale 1D denoising-diffusion lab for probing how far the
DDPM training/sampling recipe tolerates non-Gaussian noise."""

__version__ = "0.2.0"
