"""Binary checkpoint files.

Layout: magic "SERC" + u32 version + metadata block (epoch u32,
global_step u64, dev_cat_loss f64, config hash 32 bytes) + tensor table.
Each tensor entry is u32 name length + UTF-8 name + u32 rank + rank x u64
dims + float64 little-endian row-major payload. Tensors are written in
name-sorted order and read until EOF, so save/load round-trips bitwise.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from .datapipe import open_binary, write_file
from .errors import DataError

log = logging.getLogger("serkit.checkpoint")

CHECKPOINT_MAGIC = b"SERC"
CHECKPOINT_VERSION = 1


@dataclass
class CheckpointMeta:
    epoch: int
    global_step: int
    dev_cat_loss: float
    config_hash: bytes = b"\x00" * 32

    def __post_init__(self):
        if len(self.config_hash) != 32:
            raise DataError(f"config hash must be 32 bytes, got {len(self.config_hash)}")


def save_checkpoint(path: str, tensors: dict, meta: CheckpointMeta) -> None:
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<IQd", meta.epoch, meta.global_step, meta.dev_cat_loss),
             meta.config_hash]
    for name in sorted(tensors):
        array = np.ascontiguousarray(tensors[name], dtype="<f8")  # joined without a copy
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", array.ndim),
                  struct.pack(f"<{array.ndim}Q", *array.shape), array]
    write_file(path, b"".join(parts))


def load_checkpoint(path: str) -> tuple:
    """Returns (tensors dict, CheckpointMeta)."""
    with open_binary(path) as handle:
        blob = handle.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"bad checkpoint magic in {path}: {blob[:4]!r}")
    offset = 8 + struct.calcsize("<IQd")
    if len(blob) < offset + 32:
        raise DataError(f"truncated checkpoint header in {path}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version} in {path}")
    epoch, global_step, dev_cat_loss = struct.unpack_from("<IQd", blob, 8)
    config_hash = blob[offset:offset + 32]
    offset += 32
    meta = CheckpointMeta(epoch=epoch, global_step=global_step,
                          dev_cat_loss=dev_cat_loss, config_hash=config_hash)
    tensors = {}
    total = len(blob)
    while offset < total:
        try:
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}Q", blob, offset)
        except (struct.error, UnicodeDecodeError):
            raise DataError(f"truncated tensor entry in {path}") from None
        offset += 8 * rank
        count = math.prod(dims)
        end = offset + 8 * count
        if end > total:
            raise DataError(f"truncated tensor '{name}' in {path}")
        try:
            tensors[name] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(dims).copy()
        except ValueError as exc:  # numpy cannot shape these dims
            raise DataError(f"tensor '{name}' in {path}: bad dims {dims} ({exc})") from None
        offset = end
    return tensors, meta


def load_into_model(path: str, model, expected_hash: bytes | None = None) -> CheckpointMeta:
    """Load a checkpoint into a model; hash mismatch warns, shape mismatch raises."""
    tensors, meta = load_checkpoint(path)
    if expected_hash is not None and meta.config_hash != expected_hash:
        log.warning("checkpoint %s was written under a different config (hash mismatch)", path)
    model.load_state(tensors)
    return meta
