"""Reference implementations that tests compare the production paths to."""
