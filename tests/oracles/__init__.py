"""Reference implementations that parity tests compare the shipped paths against."""
