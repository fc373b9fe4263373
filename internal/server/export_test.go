package server

// WithMaxFrame returns cfg with the response frame cap lowered, for the
// black-box tests in package server_test.
func WithMaxFrame(cfg Config, n int) Config {
	cfg.maxFrame = n
	return cfg
}
