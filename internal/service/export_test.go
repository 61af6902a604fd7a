package service

// MaxRequestBytes exports the request body bound to the external tests.
const MaxRequestBytes = maxRequestBytes
