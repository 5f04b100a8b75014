"""The verification-stack benchmark (see README.md)."""
