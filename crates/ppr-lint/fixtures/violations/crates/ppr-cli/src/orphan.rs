pub fn never_compiled() {}
