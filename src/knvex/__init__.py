"""knvex: exact computation and certification for vertex Turan problems in the Kneser cube."""

__version__ = "0.1.0"
