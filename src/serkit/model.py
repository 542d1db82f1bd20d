"""Emotion network: frozen attention encoder with LoRA, pooling, dual heads.

Pipeline: padded feature batch [B, T, D] plus lengths [B] -> frozen 2-layer
pre-norm self-attention encoder (LoRA adapters on the q/k/v projections are
the only trainable encoder parameters) -> downsized ECAPA-style stack with GroupNorm
(input TDNN block, three SE-Res2 blocks at dilations 2/3/4, multi-feature
aggregation conv) -> attentive statistics pooling plus multiscale
hierarchical attention pooling -> 7-way softmax head and 3-way sigmoid head.

Every stage that mixes frames (attention keys, dilated convs, GroupNorm and
SE statistics, both poolings) is limited to each utterance's own length, so
an utterance's prediction does not depend on its batch-mates or on padding.

The encoder carries no positional encoding: order information enters the
network only through convolution kernels wider than one frame, which keeps
the permutation-sensitivity contract testable.

Parameters live in a flat dotted-name table (e.g. encoder.layer0.attn.q.lora.A)
that doubles as the checkpoint schema.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import (
    Tensor,
    attention_weights,
    concat,
    conv1d_dilated,
    group_norm,
    layer_norm,
    linear,
    multi_head_attention,
)
from .errors import ConfigError, ShapeError
from .labels import NUM_CLASSES


# -- configuration ---------------------------------------------------------


def _check_sizes(what: str, cfg, *names: str) -> None:
    """Each named field of `cfg` must be a size >= 1."""
    for name in names:
        if not getattr(cfg, name) >= 1:
            raise ConfigError(f"{what} {name} must be >= 1, got {getattr(cfg, name)}")


@dataclass
class EncoderStubConfig:
    num_layers: int = 2
    model_dim: int = 32
    num_heads: int = 4
    ff_dim: int = 64

    def __post_init__(self):
        _check_sizes("encoder", self, "num_layers", "model_dim", "num_heads", "ff_dim")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"encoder model_dim {self.model_dim} not divisible by {self.num_heads} heads"
            )


@dataclass
class LoraConfig:
    rank: int = 4
    alpha: float = 8.0

    def __post_init__(self):
        if self.rank < 0:
            raise ConfigError(f"LoRA rank must be >= 0, got {self.rank}")
        if not math.isfinite(self.alpha):
            raise ConfigError(f"LoRA alpha must be finite, got {self.alpha}")

    @property
    def enabled(self) -> bool:
        return self.rank > 0


@dataclass
class PoolingConfig:
    scales: tuple = (1, 4, 16)
    attention_hidden: int = 32

    def __post_init__(self):
        self.scales = tuple(int(s) for s in self.scales)
        if not self.scales or self.scales[0] != 1:
            raise ConfigError("pooling scales must start with 1")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ConfigError(f"pooling scales must be strictly increasing, got {self.scales}")
        _check_sizes("pooling", self, "attention_hidden")


@dataclass
class EcapaConfig:
    channels: int = 64
    dilations: tuple = (2, 3, 4)
    res2_scale: int = 4
    gn_groups: int = 8
    se_bottleneck: int = 16
    kernel_size: int = 3
    gn_eps: float = 1e-5
    stats_attention_hidden: int = 32

    def __post_init__(self):
        self.dilations = tuple(int(d) for d in self.dilations)
        _check_sizes("ECAPA", self, "channels", "res2_scale", "gn_groups", "se_bottleneck",
                     "kernel_size", "stats_attention_hidden")
        if not self.dilations or min(self.dilations) < 1:
            raise ConfigError(f"ECAPA dilations must be values >= 1, got {self.dilations}")
        if self.channels % self.gn_groups != 0:
            raise ConfigError(
                f"ECAPA channels {self.channels} not divisible by {self.gn_groups} GroupNorm groups"
            )
        if self.channels % self.res2_scale != 0:
            raise ConfigError(
                f"ECAPA channels {self.channels} not divisible by Res2 scale {self.res2_scale}"
            )
        if self.kernel_size % 2 != 1:
            raise ConfigError(f"ECAPA kernel size must be odd, got {self.kernel_size}")
        if not self.gn_eps > 0:
            raise ConfigError("GroupNorm eps must be > 0")


@dataclass
class ModelConfig:
    feature_dim: int = 16
    seed: int = 0
    encoder: EncoderStubConfig = field(default_factory=EncoderStubConfig)
    lora: LoraConfig = field(default_factory=LoraConfig)
    pooling: PoolingConfig = field(default_factory=PoolingConfig)
    ecapa: EcapaConfig = field(default_factory=EcapaConfig)

    def __post_init__(self):
        _check_sizes("model", self, "feature_dim")


# -- outputs ---------------------------------------------------------------


@dataclass
class ModelOutput:
    cat_probs: Tensor           # [7], or [B, 7] for a batch: softmax of the class head
    dim_tensor: Tensor          # [3] or [B, 3] sigmoid scores, kept on the graph


# -- pooling primitives ------------------------------------------------------


def _window_matrix(t: int, scale: int, lengths=None) -> tuple:
    """Averaging matrix over non-overlapping windows of `scale` frames (remainder kept).

    Without `lengths`: ([N, T], None). With `lengths` ([B]) each utterance
    gets its own windows: ([B, N, T], window counts [B]); windows that start
    past an utterance's length are all-zero rows, past its count.
    """
    lo = np.arange(math.ceil(t / scale)) * scale
    limit = t if lengths is None else np.asarray(lengths)[:, None]
    hi = np.minimum(lo + scale, limit)
    frames = np.arange(t)
    inside = (frames >= lo[:, None]) & (frames < hi[..., None])
    counts = hi - lo
    matrix = inside / np.maximum(counts, 1)[..., None]
    return matrix, (None if lengths is None else np.sum(counts > 0, axis=-1))


def additive_attention(seq: Tensor, w: Tensor, b: Tensor, v: Tensor, lengths=None) -> Tensor:
    """Single-head additive attention summary [..., d] over the rows of [..., n, d]."""
    weights = attention_weights(seq, w, b, v, lengths)
    summary = weights.reshape(weights.shape[:-1] + (1, -1)) @ seq
    return summary.reshape(summary.shape[:-2] + (seq.shape[-1],))


def multiscale_hierarchical_pool(hidden: Tensor, cfg: PoolingConfig,
                                 scale_attn: tuple, hier_attn: tuple, lengths=None) -> Tensor:
    """Multiscale + hierarchical attention pooling of [..., T, d] into [..., d].

    Per scale s: average non-overlapping windows of s frames (remainder
    window kept, short inputs collapse to a single whole-sequence window),
    then apply a shared additive attention to get one summary per scale.
    A second additive attention over the per-scale summaries yields the
    pooled vector. With `lengths` ([B]) the windows follow each
    utterance's own length.
    """
    t = hidden.shape[-2]
    if t == 0:
        raise ShapeError("multiscale pooling on empty input (T=0)")
    summaries = []
    for scale in cfg.scales:
        if scale == 1:  # the window matrix would be the identity
            windowed, windows = hidden, lengths
        else:
            matrix, windows = _window_matrix(t, scale, lengths)
            windowed = Tensor(matrix) @ hidden
        summary = additive_attention(windowed, *scale_attn, lengths=windows)
        summaries.append(summary.reshape(summary.shape[:-1] + (1, -1)))
    return additive_attention(concat(summaries, axis=-2), *hier_attn)


def attentive_stats_pool(x: Tensor, w: Tensor, b: Tensor, v: Tensor,
                         var_floor: float = 1e-12, lengths=None) -> Tensor:
    """Attention-weighted mean and std per channel of [..., C, T], concatenated to [..., 2C].

    The variance is floored (default sqrt -> std floor 1e-6) so constant
    inputs stay differentiable. With `lengths` ([B]) padded frames get
    attention weight 0 (Okabe et al., arXiv:1803.10963, over valid frames).
    """
    if x.shape[-1] < 1:
        raise ShapeError("attentive stats pooling needs at least one frame")
    weights = attention_weights(x.T, w, b, v, lengths)
    col = weights.reshape(weights.shape + (1,))
    channels = x.shape[:-1]
    mean = (x @ col).reshape(channels)
    second = ((x * x) @ col).reshape(channels)
    std = (second - mean * mean).maximum(var_floor) ** 0.5
    return concat([mean, std], axis=-1)


# -- model ------------------------------------------------------------------


class SERModel:
    """The full network; parameters in a flat dotted-name table."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(cfg.seed)
        self._build_encoder(rng)
        self._build_ecapa(rng)
        self._build_pooling(rng)
        self._build_heads(rng)
        # Separate stream so enabling/disabling LoRA cannot shift base init.
        self._build_lora(np.random.default_rng((cfg.seed, 0x10AD)))

    # -- construction --

    def _add(self, name: str, array: np.ndarray, trainable: bool) -> Tensor:
        tensor = Tensor(array, requires_grad=trainable)
        self.params[name] = tensor
        return tensor

    def _linear_init(self, rng, fan_out, fan_in):
        return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_out, fan_in))

    def _build_encoder(self, rng):
        enc = self.cfg.encoder
        d, din = enc.model_dim, self.cfg.feature_dim
        self._add("encoder.in_proj.weight", self._linear_init(rng, d, din), False)
        self._add("encoder.in_proj.bias", np.zeros(d), False)
        for i in range(enc.num_layers):
            p = f"encoder.layer{i}"
            self._add(f"{p}.ln1.gamma", np.ones(d), False)
            self._add(f"{p}.ln1.beta", np.zeros(d), False)
            for proj in ("q", "k", "v"):
                self._add(f"{p}.attn.{proj}.weight", self._linear_init(rng, d, d), False)
                self._add(f"{p}.attn.{proj}.bias", np.zeros(d), False)
            self._add(f"{p}.attn.out.weight", self._linear_init(rng, d, d), False)
            self._add(f"{p}.attn.out.bias", np.zeros(d), False)
            self._add(f"{p}.ln2.gamma", np.ones(d), False)
            self._add(f"{p}.ln2.beta", np.zeros(d), False)
            self._add(f"{p}.ff.w1.weight", self._linear_init(rng, enc.ff_dim, d), False)
            self._add(f"{p}.ff.w1.bias", np.zeros(enc.ff_dim), False)
            self._add(f"{p}.ff.w2.weight", self._linear_init(rng, d, enc.ff_dim), False)
            self._add(f"{p}.ff.w2.bias", np.zeros(d), False)
        self._add("encoder.ln_out.gamma", np.ones(d), False)
        self._add("encoder.ln_out.beta", np.zeros(d), False)

    def _build_lora(self, rng):
        if not self.cfg.lora.enabled:
            return
        r = self.cfg.lora.rank
        d = self.cfg.encoder.model_dim
        for i in range(self.cfg.encoder.num_layers):
            for proj in ("q", "k", "v"):
                prefix = f"encoder.layer{i}.attn.{proj}"
                self._add(f"{prefix}.lora.A", rng.normal(0.0, 0.02, size=(r, d)), True)
                self._add(f"{prefix}.lora.B", np.zeros((d, r)), True)

    def _conv_init(self, rng, c_out, c_in, k):
        return rng.normal(0.0, 1.0 / math.sqrt(c_in * k), size=(c_out, c_in, k))

    def _add_gn(self, prefix, channels):
        self._add(f"{prefix}.gamma", np.ones(channels), True)
        self._add(f"{prefix}.beta", np.zeros(channels), True)

    def _build_ecapa(self, rng):
        e = self.cfg.ecapa
        c, k = e.channels, e.kernel_size
        d = self.cfg.encoder.model_dim
        self._add("ecapa.input.conv.weight", self._conv_init(rng, c, d, k), True)
        self._add("ecapa.input.conv.bias", np.zeros(c), True)
        self._add_gn("ecapa.input.gn", c)
        width = c // e.res2_scale
        for i, _dil in enumerate(e.dilations):
            p = f"ecapa.block{i}"
            self._add(f"{p}.conv1.weight", self._conv_init(rng, c, c, 1), True)
            self._add(f"{p}.conv1.bias", np.zeros(c), True)
            self._add_gn(f"{p}.gn1", c)
            for j in range(1, e.res2_scale):
                self._add(f"{p}.res2.conv{j}.weight", self._conv_init(rng, width, width, k), True)
                self._add(f"{p}.res2.conv{j}.bias", np.zeros(width), True)
            self._add_gn(f"{p}.gn2", c)
            self._add(f"{p}.conv3.weight", self._conv_init(rng, c, c, 1), True)
            self._add(f"{p}.conv3.bias", np.zeros(c), True)
            self._add_gn(f"{p}.gn3", c)
            self._add(f"{p}.se.fc1.weight", self._linear_init(rng, e.se_bottleneck, c), True)
            self._add(f"{p}.se.fc1.bias", np.zeros(e.se_bottleneck), True)
            self._add(f"{p}.se.fc2.weight", self._linear_init(rng, c, e.se_bottleneck), True)
            self._add(f"{p}.se.fc2.bias", np.zeros(c), True)
        n_blocks = len(e.dilations)
        self._add("ecapa.mfa.conv.weight", self._conv_init(rng, c, n_blocks * c, 1), True)
        self._add("ecapa.mfa.conv.bias", np.zeros(c), True)
        self._add_gn("ecapa.mfa.gn", c)
        h = e.stats_attention_hidden
        self._add("ecapa.stats.attn.W", self._linear_init(rng, h, c), True)
        self._add("ecapa.stats.attn.b", np.zeros(h), True)
        self._add("ecapa.stats.attn.v", rng.normal(0.0, 1.0 / math.sqrt(h), size=h), True)

    def _build_pooling(self, rng):
        c = self.cfg.ecapa.channels
        h = self.cfg.pooling.attention_hidden
        for name in ("pool.scale_attn", "pool.hier_attn"):
            self._add(f"{name}.W", self._linear_init(rng, h, c), True)
            self._add(f"{name}.b", np.zeros(h), True)
            self._add(f"{name}.v", rng.normal(0.0, 1.0 / math.sqrt(h), size=h), True)

    def _build_heads(self, rng):
        c = self.cfg.ecapa.channels
        pooled_dim = 3 * c  # attentive stats (2C) + multiscale summary (C)
        self._add("head.cat.weight", self._linear_init(rng, NUM_CLASSES, pooled_dim), True)
        self._add("head.cat.bias", np.zeros(NUM_CLASSES), True)
        self._add("head.dim.weight", self._linear_init(rng, 3, pooled_dim), True)
        self._add("head.dim.bias", np.zeros(3), True)

    # -- parameter access --

    def trainable_parameters(self) -> dict:
        return {n: t for n, t in self.params.items() if t.requires_grad}

    def backbone_parameters(self) -> dict:
        return {n: t for n, t in self.trainable_parameters().items() if ".lora." in n}

    def downstream_parameters(self) -> dict:
        return {n: t for n, t in self.trainable_parameters().items() if ".lora." not in n}

    def zero_grad(self):
        for tensor in self.params.values():
            tensor.grad = None

    def state_arrays(self) -> dict:
        return {name: tensor.data.copy() for name, tensor in self.params.items()}

    def load_state(self, arrays: dict):
        for name, tensor in self.params.items():
            if name not in arrays:
                raise ShapeError(f"checkpoint missing tensor '{name}'")
            incoming = np.asarray(arrays[name], dtype=np.float64)
            if incoming.shape != tensor.data.shape:
                raise ShapeError(
                    f"tensor '{name}' shape mismatch: model {tensor.data.shape}, checkpoint {incoming.shape}"
                )
            tensor.data = incoming.copy()
        extra = set(arrays) - set(self.params)
        if extra:
            raise ShapeError(f"checkpoint has unknown tensors: {sorted(extra)[:4]}")

    # -- forward pieces --

    def _linear(self, x: Tensor, prefix: str) -> Tensor:
        """The projection `prefix`, with its LoRA adapter (`prefix`.lora.A/B) if it has one."""
        a = self.params.get(f"{prefix}.lora.A")
        lora = None if a is None else (a, self.params[f"{prefix}.lora.B"],
                                       self.cfg.lora.alpha / self.cfg.lora.rank)
        return linear(x, self.params[f"{prefix}.weight"], self.params[f"{prefix}.bias"], lora)

    def _layer_norm(self, x: Tensor, prefix: str) -> Tensor:
        return layer_norm(x, self.params[f"{prefix}.gamma"], self.params[f"{prefix}.beta"])

    def _attention(self, x: Tensor, prefix: str, lengths=None) -> Tensor:
        q = self._linear(x, f"{prefix}.q")
        k = self._linear(x, f"{prefix}.k")
        v = self._linear(x, f"{prefix}.v")
        heads = multi_head_attention(q, k, v, self.cfg.encoder.num_heads, lengths)
        return self._linear(heads, f"{prefix}.out")

    def encoder_forward(self, features: Tensor, lengths=None) -> Tensor:
        """Frozen encoder with LoRA over [..., T, D]; gradient reaches only adapter parameters."""
        if features.data.ndim not in (2, 3):
            raise ShapeError(f"features must be [T, D] or [B, T, D], got {features.data.shape}")
        t, din = features.data.shape[-2:]
        if t < 1:
            raise ShapeError("encoder input has no frames (T=0)")
        if din != self.cfg.feature_dim:
            raise ConfigError(
                f"feature dim {din} does not match configured {self.cfg.feature_dim}"
            )
        h = self._linear(features, "encoder.in_proj")
        for i in range(self.cfg.encoder.num_layers):
            p = f"encoder.layer{i}"
            h = h + self._attention(self._layer_norm(h, f"{p}.ln1"), f"{p}.attn", lengths)
            n = self._layer_norm(h, f"{p}.ln2")
            ff = self._linear(n, f"{p}.ff.w1").relu()
            h = h + self._linear(ff, f"{p}.ff.w2")
        return self._layer_norm(h, "encoder.ln_out")

    def _conv(self, x: Tensor, prefix: str, dilation: int = 1, lengths=None) -> Tensor:
        return conv1d_dilated(x, self.params[f"{prefix}.weight"], self.params[f"{prefix}.bias"],
                              dilation=dilation, lengths=lengths)

    def _group_norm(self, x: Tensor, prefix: str, lengths=None, relu: bool = True) -> Tensor:
        e = self.cfg.ecapa
        return group_norm(x, e.gn_groups, self.params[f"{prefix}.gamma"],
                          self.params[f"{prefix}.beta"], eps=e.gn_eps, lengths=lengths, relu=relu)

    def ecapa_block_forward(self, x: Tensor, block_index: int, lengths=None) -> Tensor:
        """SE-Res2 block over [..., C, T]: 1x1 conv, Res2 dilated convs, 1x1 conv, SE gate,
        residual."""
        e = self.cfg.ecapa
        p = f"ecapa.block{block_index}"
        dilation = e.dilations[block_index]
        width = e.channels // e.res2_scale

        out = self._group_norm(self._conv(x, f"{p}.conv1"), f"{p}.gn1", lengths)
        # Res2 split: first chunk passes through, the rest get dilated convs.
        chunks = [out[..., 0:width, :]]
        for j in range(1, e.res2_scale):
            chunks.append(self._conv(out[..., j * width:(j + 1) * width, :],
                                     f"{p}.res2.conv{j}", dilation, lengths))
        out = self._group_norm(concat(chunks, axis=-2), f"{p}.gn2", lengths)
        out = self._group_norm(self._conv(out, f"{p}.conv3"), f"{p}.gn3", lengths, relu=False)
        # Squeeze-excitation channel gate from the time-averaged signal.
        # GroupNorm left padded frames at exactly zero, so a sum over T
        # divided by the length is the mean over valid frames.
        frames = out.shape[-1] if lengths is None else lengths[:, None, None]
        squeeze = out.sum(axis=-1, keepdims=True) / frames
        gate = self._linear(squeeze.T, f"{p}.se.fc1").relu()
        gate = self._linear(gate, f"{p}.se.fc2").sigmoid()
        return x + out * gate.T

    def ecapa_forward(self, hidden: Tensor, lengths=None) -> Tensor:
        """Frame-level ECAPA stack on encoder output [..., T, d] -> [..., C, T]."""
        x = self._conv(hidden.T, "ecapa.input.conv", lengths=lengths)
        x = self._group_norm(x, "ecapa.input.gn", lengths)
        block_outs = []
        for i in range(len(self.cfg.ecapa.dilations)):
            x = self.ecapa_block_forward(x, i, lengths)
            block_outs.append(x)
        x = self._conv(concat(block_outs, axis=-2), "ecapa.mfa.conv")
        return self._group_norm(x, "ecapa.mfa.gn", lengths)

    def _pool_params(self, prefix: str):
        return (self.params[f"{prefix}.W"], self.params[f"{prefix}.b"], self.params[f"{prefix}.v"])

    def pooled_representation(self, features: Tensor, lengths=None) -> Tensor:
        """[..., T, D] features -> fixed-size [..., 3C] vector feeding both heads."""
        hidden = self.encoder_forward(features, lengths)
        frames = self.ecapa_forward(hidden, lengths)            # [..., C, T]
        stats = attentive_stats_pool(frames, *self._pool_params("ecapa.stats.attn"),
                                     lengths=lengths)
        summary = multiscale_hierarchical_pool(frames.T, self.cfg.pooling,
                                               self._pool_params("pool.scale_attn"),
                                               self._pool_params("pool.hier_attn"), lengths)
        return concat([stats, summary], axis=-1)

    def forward(self, features, lengths=None) -> ModelOutput:
        """One utterance [T, D] -> [7]/[3] fields, or a padded batch [B, T, D] with
        valid lengths [B] -> [B, 7]/[B, 3] fields; lengths=None means every frame.

        Row b reads only its first lengths[b] frames, so it equals the forward of
        the unpadded utterance whatever the padding or batch-mates.
        """
        if not isinstance(features, Tensor):
            features = Tensor(np.asarray(features, dtype=np.float64))
        single = features.data.ndim == 2 and lengths is None
        if single:
            features = features.reshape((1,) + features.shape)
        if lengths is None and features.data.ndim == 3:
            lengths = np.full(features.shape[0], features.shape[1])
        lengths = np.asarray(lengths)
        if features.data.ndim != 3 or lengths.shape != features.shape[:1]:
            raise ShapeError(f"forward expects features [T, D], or [B, T, D] with lengths [B], "
                             f"got {features.shape} and {lengths.shape}")
        t = features.shape[1]
        if (lengths.size == 0 or lengths.dtype.kind not in "iu"
                or lengths.min() < 1 or lengths.max() > t):
            raise ShapeError(f"lengths must be integers in [1, {t}], got {lengths.tolist()}")
        pooled = self.pooled_representation(features, None if np.all(lengths == t) else lengths)
        logits = self._linear(pooled, "head.cat")
        dims = self._linear(pooled, "head.dim").sigmoid()
        probs = logits.softmax()
        if single:
            probs, dims = probs.reshape(probs.shape[1:]), dims.reshape(dims.shape[1:])
        return ModelOutput(cat_probs=probs, dim_tensor=dims)

    # -- LoRA merge --

    def merge_adapters(self) -> "SERModel":
        """Adapter-free clone: each projection with `prefix`.lora.A/B gets the weight
        W + (alpha/rank) * B @ A (Hu et al., arXiv:2106.09685)."""
        merged = SERModel(replace(copy.deepcopy(self.cfg), lora=replace(self.cfg.lora, rank=0)))
        state = {name: t.data for name, t in self.params.items() if ".lora." not in name}
        for name, a in self.params.items():
            if name.endswith(".lora.A"):
                prefix = name[:-len(".lora.A")]
                update = self.params[f"{prefix}.lora.B"].data @ a.data
                scale = self.cfg.lora.alpha / self.cfg.lora.rank
                state[f"{prefix}.weight"] = state[f"{prefix}.weight"] + scale * update
        merged.load_state(state)
        return merged
