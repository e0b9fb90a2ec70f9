pub fn reached() {}
