package main

import "testing"

func TestTestOnly(t *testing.T) { _ = testOnly() + allowed() }
