"""Layered, paper-shaped benchmark of the simulator (see README.md)."""
