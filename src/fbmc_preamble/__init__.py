"""Low-PAPR FBMC/OQAM preambles from binary Golay sequences."""

__version__ = "0.1.0"
