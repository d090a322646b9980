"""Incentive analysis toolkit for leader-based blockchain fee splitting:
closed-form attack bounds, a selfish-mining decision-process solver, a Monte
Carlo simulator, pair-concentration bounds, and fee-dataset utilities."""

__version__ = "0.1.0"
