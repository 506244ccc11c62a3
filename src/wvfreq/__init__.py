"""Weak-value amplified optical frequency measurement simulator."""

__version__ = "0.1.4"
