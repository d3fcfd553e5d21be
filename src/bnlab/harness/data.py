"""Datasets: CIFAR-10 binary ingestion, synthetic blobs, augmentation,
channel-wise preprocessing."""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, FormatError, SizeError
from ..tensor import Array, SeededRng

CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes


@dataclass
class LabeledImageSet:
    images: Array  # [n, c, h, w] float64
    labels: Array  # [n] int64
    class_count: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise DimensionError(f"images must be 4-d, got shape {self.images.shape}")
        if self.images.shape[0] != self.labels.shape[0]:
            raise SizeError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.class_count
        ):
            raise FormatError(
                f"labels must lie in [0, {self.class_count}), "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def n(self) -> int:
        return self.images.shape[0]


def parse_cifar10_bin(source) -> LabeledImageSet:
    """Decode the CIFAR-10 binary layout: 3073-byte records, one label byte
    then 3072 pixel bytes (1024 red, 1024 green, 1024 blue; row-major 32x32
    within each channel). Accepts a path or raw bytes. Pixels come back as
    float64 in [0, 255].
    """
    if isinstance(source, (bytes, bytearray)):
        blob = bytes(source)
    else:
        with open(source, "rb") as fh:
            blob = fh.read()
    if len(blob) % CIFAR_RECORD != 0:
        raise FormatError(
            f"file length {len(blob)} is not a multiple of {CIFAR_RECORD}"
        )
    n = len(blob) // CIFAR_RECORD
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(n, CIFAR_RECORD)
    labels = raw[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(f"record {bad[0]}: label byte {labels[bad[0]]} exceeds 9")
    images = raw[:, 1:].reshape(n, 3, 32, 32).astype(np.float64)
    return LabeledImageSet(images, labels, class_count=10)


def load_cifar10_dir(directory: str) -> tuple[LabeledImageSet, LabeledImageSet]:
    """Standard on-disk layout: data_batch_1..5.bin for training, test_batch.bin."""
    parts = [
        parse_cifar10_bin(os.path.join(directory, f"data_batch_{i}.bin"))
        for i in range(1, 6)
    ]
    train = LabeledImageSet(
        np.concatenate([p.images for p in parts]),
        np.concatenate([p.labels for p in parts]),
        class_count=10,
    )
    test = parse_cifar10_bin(os.path.join(directory, "test_batch.bin"))
    return train, test


def synth_dataset(
    classes: int,
    per_class: int,
    shape: tuple[int, int, int] = (3, 8, 8),
    separation: float = 10.0,
    seed: int = 0,
) -> LabeledImageSet:
    """Gaussian class blobs reshaped to image layout.

    Class k's mean is (separation / sqrt(2)) * e_k, so every pair of class
    means sits exactly `separation` apart; within-class covariance is the
    identity. Labels are balanced and the example order is shuffled once.
    Requires classes <= flattened dimension (one coordinate per class).
    """
    if classes < 2:
        raise SizeError(f"need at least 2 classes, got {classes}")
    if per_class < 1:
        raise SizeError(f"need at least 1 example per class, got {per_class}")
    dim = int(np.prod(shape))
    if classes > dim:
        raise SizeError(f"{classes} classes need dimension >= {classes}, got {dim}")
    gen = SeededRng(seed).generator()
    n = classes * per_class
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    x = gen.normal(size=(n, dim))
    x[np.arange(n), labels] += separation / np.sqrt(2.0)
    order = gen.permutation(n)
    images = x[order].reshape(n, *shape)
    return LabeledImageSet(images, labels[order], class_count=classes)


def pad_crop_flip(image: Array, off_y: int, off_x: int, flip: bool, pad: int = 4) -> Array:
    """Deterministic core of the augmentation: zero-pad each spatial side by
    `pad`, crop the original-size window at (off_y, off_x), optionally
    mirror horizontally."""
    if image.ndim != 3:
        raise DimensionError(f"expected a [c,h,w] image, got shape {image.shape}")
    c, h, w = image.shape
    if not (0 <= off_y <= 2 * pad and 0 <= off_x <= 2 * pad):
        raise DimensionError(f"crop offsets must lie in [0, {2 * pad}]")
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=image.dtype)
    padded[:, pad : pad + h, pad : pad + w] = image
    out = padded[:, off_y : off_y + h, off_x : off_x + w]
    if flip:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(out)


def augment_batch(images: Array, rng_or_gen, pad: int = 4) -> Array:
    """Random crop-with-padding plus horizontal flip (p = 1/2) per image."""
    gen = rng_or_gen.generator() if isinstance(rng_or_gen, SeededRng) else rng_or_gen
    out = np.empty_like(images)
    for i in range(images.shape[0]):
        off_y, off_x = gen.integers(0, 2 * pad + 1, size=2)
        flip = bool(gen.random() < 0.5)
        out[i] = pad_crop_flip(images[i], int(off_y), int(off_x), flip, pad)
    return out


@dataclass(frozen=True)
class ChannelStats:
    mean: Array  # [c]
    std: Array  # [c], floored at 1e-8


def preprocess(
    train: LabeledImageSet, *others: LabeledImageSet
) -> tuple[list[LabeledImageSet], ChannelStats]:
    """Channel-wise mean/std normalization, statistics from the training set
    only; every other set is transformed with the training statistics."""
    mean = train.images.mean(axis=(0, 2, 3))
    std = np.maximum(train.images.std(axis=(0, 2, 3)), 1e-8)
    stats = ChannelStats(mean=mean, std=std)

    def apply(s: LabeledImageSet) -> LabeledImageSet:
        shifted = (s.images - mean[:, None, None]) / std[:, None, None]
        return LabeledImageSet(shifted, s.labels, s.class_count)

    return [apply(s) for s in (train, *others)], stats
