"""System configuration and seeded random substreams.

A single :class:`SystemConfig` carries every scalar that defines an
experiment: array geometry, OFDM numerology, grid sizes, noise level,
and the cluster statistics of the propagation model.  One root seed
deterministically drives every random draw through named substreams,
so two runs with the same seed produce bit-identical channels, pilot
matrices, and noise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing
from dataclasses import dataclass

import numpy as np

# Fixed stream ids keep each substream stable when unrelated config
# fields change.  Evaluation streams are separate from dataset streams
# so sweeps never replay training draws.
_STREAM_IDS = {
    "channel": 0,
    "pilot": 1,
    "noise": 2,
    "net-init": 3,
    "shuffle": 4,
    "eval-channel": 5,
    "eval-noise": 6,
    "sweep-noise": 7,
}

SPLIT_IDS = {"train": 0, "val": 1, "test": 2}


def spawn_rng(root_seed: int, stream: str, *indices: int) -> np.random.Generator:
    """Independent generator for a named substream of ``root_seed``.

    Extra ``indices`` (sample number, stage, epoch, ...) select disjoint
    children of the same stream, which makes per-sample generation safe
    to parallelize and insensitive to work ordering.
    """
    if stream not in _STREAM_IDS:
        raise ValueError(f"unknown stream {stream!r}; known: {sorted(_STREAM_IDS)}")
    key = (_STREAM_IDS[stream],) + tuple(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=key))


def _key(default, text: str):
    """A config field with its default and ``text``, the help line of the flag it becomes."""
    return dataclasses.field(default=default, metadata={"help": text})


@dataclass(frozen=True)
class SystemConfig:
    """All experiment scalars.  Defaults give the reference setup.

    Angles are radians and times are seconds everywhere in the library;
    unit conversion is a front-end concern.  Each field becomes a flag
    of the command line, with the help line in its metadata.
    """

    n_antennas: int = _key(32, "receive array size")                      # N
    n_rf: int = _key(4, "RF chains per use")
    n_uses: int = _key(4, "pilot time uses")                              # Q
    n_subcarriers: int = _key(32, "OFDM tones")                           # K
    center_freq: float = _key(28e9, "carrier frequency, Hz")
    bandwidth: float = _key(4e9, "sampling rate, Hz")                     # f_s
    grid_angular: int = _key(64, "angular grid points")                   # per subcarrier, G_A
    grid_delay: int = _key(64, "delay grid points")                       # G_D
    # its SNR label is -10 log10(noise_var), but E||H||_F^2 = K, so the whitened measurement
    # SNR is about the label minus 10 log10(N) (-5.3 dB at 10 dB with N = 32)
    noise_var: float = _key(0.1, "per-antenna noise variance")
    n_clusters: int = _key(3, "scattering clusters")
    n_subpaths: int = _key(10, "subpaths per cluster")
    angle_spread: float = _key(math.radians(4.0), "intra-cluster angle std, radians")
    delay_spread: float = _key(0.06e-9, "intra-cluster delay std, seconds")
    max_mean_delay: float = _key(25e-9, "cluster mean delay bound, seconds")
    n_iterations: int = _key(30, "depth of the classic estimators that evaluate and sweep score")  # L
    rng_seed: int = _key(2024, "root seed for all streams")

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if kind is float and (isinstance(value, bool) or not isinstance(value, (int, float))
                                  or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            if kind is float:
                # an int given for a float field is stored as float, so it hashes as one
                object.__setattr__(self, name, float(value))
        for name in ("n_antennas", "n_rf", "n_uses", "n_subcarriers", "grid_angular",
                     "grid_delay", "n_clusters", "n_subpaths"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)!r}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth!r}")
        if self.center_freq <= self.bandwidth / 2:
            raise ValueError("center_freq must exceed bandwidth/2 so every subcarrier frequency is positive")
        if self.noise_var <= 0:
            raise ValueError(f"noise_var must be positive, got {self.noise_var!r}")
        for name in ("angle_spread", "delay_spread", "max_mean_delay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be non-negative")

    # ---- derived quantities -------------------------------------------------

    @property
    def subcarrier_spacing(self) -> float:
        """Tone spacing eta = bandwidth / n_subcarriers, Hz."""
        return self.bandwidth / self.n_subcarriers

    @property
    def n_paths(self) -> int:
        return self.n_clusters * self.n_subpaths

    @property
    def n_measurements(self) -> int:
        """Stacked measurement length K * Q * n_rf."""
        return self.n_subcarriers * self.n_uses * self.n_rf

    @property
    def grid_total(self) -> int:
        return self.grid_angular * self.grid_delay

    @property
    def snr_db(self) -> float:
        return -10.0 * math.log10(self.noise_var)

    # ---- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SystemConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)

    def config_hash(self) -> str:
        """Short stable digest of the full configuration."""
        from .data_io import canonical_json

        return hashlib.sha256(canonical_json(self.to_dict())).hexdigest()[:12]


# every field is an int or a float; __post_init__ checks each value against its type
_FIELD_TYPES = typing.get_type_hints(SystemConfig)


def default_config(**overrides) -> SystemConfig:
    """The reference configuration (28 GHz carrier, 4 GHz bandwidth)."""
    return SystemConfig(**overrides)


def desk_config(**overrides) -> SystemConfig:
    """Reduced geometry for fast tests: same physics, smaller array and grids."""
    base = dict(
        n_antennas=16,
        n_rf=2,
        n_uses=2,
        n_subcarriers=8,
        grid_angular=16,
        grid_delay=16,
    )
    base.update(overrides)
    return SystemConfig(**base)


def provenance_line(cfg: SystemConfig) -> str:
    """``# config_hash=<hash> seed=<seed>``, the first line of every output file."""
    return f"# config_hash={cfg.config_hash()} seed={cfg.rng_seed}"


def noise_var_from_snr_db(snr_db: float) -> float:
    """Noise variance 10^(-snr_db/10) for an SNR label in dB.

    The label takes unit power per antenna, but ``build_channel`` sets
    E||H||_F^2 = K, i.e. 1/N per antenna, so the whitened measurement SNR
    is about ``snr_db - 10 log10(N)``: -5.3 dB at a label of 10 dB with
    N = 32.
    """
    return 10.0 ** (-snr_db / 10.0)


def subcarrier_freqs(cfg: SystemConfig) -> np.ndarray:
    """All tone frequencies as a length-K vector."""
    k = np.arange(cfg.n_subcarriers)
    return cfg.center_freq + (k - (cfg.n_subcarriers - 1) / 2) * cfg.subcarrier_spacing
