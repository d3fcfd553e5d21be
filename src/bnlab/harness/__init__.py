"""Experiment orchestration: configs, datasets, training loops, artifacts."""
