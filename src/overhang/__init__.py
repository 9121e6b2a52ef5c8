"""Deterministic scenario toolkit for large dormant-position disposition analysis.

Quantifies the mechanical price impact of patient liquidation under varying
elasticity and execution assumptions, builds participation-constrained
selldown schedules and optimal-execution frontiers, maps preference sets to
terminal dispositions, and simulates the cryptographic disposition
mechanisms (secret sharding, timelocks, dead-man's switch) on a simulated
clock.

Import each name from its module (``from overhang.mechanisms import split``);
the package holds only ``__version__``, so importing one module loads no
other module it does not need.
"""

__version__ = "0.1.0"
