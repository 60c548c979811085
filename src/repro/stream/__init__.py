"""Stream substrate: reservoir samplers and batch normalisation."""

from repro.stream.reservoir import DecayedReservoirSampler, ReservoirSampler

__all__ = ["ReservoirSampler", "DecayedReservoirSampler"]
